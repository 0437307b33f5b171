package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/site"
	sqlfe "repro/internal/sql"
	"repro/internal/tpcr"
	"repro/internal/transport"
	"repro/skalla"
)

// serveFixture is the skalla-coord -serve path: a QueryService over
// skalla.ConnectWith to logical sites that each run as several replica
// transport.Servers on loopback TCP, with adaptive hedging, circuit
// breakers, the retry budget and deadline propagation on.
type serveFixture struct {
	w       *workload
	ordered []bool
	servers []*transport.Server
	cluster *skalla.Cluster
	svc     *skalla.QueryService
	sink    *obs.Obs
}

func newServeFixture(w *workload, data tpcr.Config, rec *recorder) (*serveFixture, error) {
	ordered, err := orderedStatements(w)
	if err != nil {
		return nil, err
	}
	f := &serveFixture{w: w, ordered: ordered, sink: &obs.Obs{Metrics: obs.NewRegistry()}}
	entries := make([]string, w.sites)
	for i := 0; i < w.sites; i++ {
		id := fmt.Sprintf("site%d", i)
		addrs := make([]string, w.replicas)
		for r := range addrs {
			// Every replica holds its own copy of the site's partition.
			part, err := tpcr.GeneratePartition(data, i, w.sites)
			if err != nil {
				f.close()
				return nil, err
			}
			eng := site.NewEngine(id)
			eng.Load("tpcr", part)
			srv := transport.NewServer(&timedHandler{inner: eng, site: fmt.Sprintf("%s/r%d", id, r), rec: rec})
			// Every cancelled hedge loser drops its connection, which the
			// server would log; failed queries reach the gate instead.
			srv.Logf = func(string, ...any) {}
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				f.close()
				return nil, err
			}
			f.servers = append(f.servers, srv)
			addrs[r] = addr
		}
		entries[i] = strings.Join(addrs, "|")
	}
	c, err := skalla.ConnectWith(skalla.ConnectConfig{
		Sites:             entries,
		CallTimeout:       10 * time.Second,
		Obs:               f.sink,
		Hedge:             true,
		PropagateDeadline: true,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.cluster = c
	if err := tpcr.FillCatalog(c.Catalog(), c.SiteIDs(), data); err != nil {
		f.close()
		return nil, err
	}
	f.svc, err = skalla.NewQueryService(c, skalla.ServeConfig{
		MaxConcurrent:   2,
		SiteInflight:    2,
		QueryTimeout:    10 * time.Second,
		BreakerFailures: 5,
		BreakerCooldown: time.Second,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *serveFixture) exec(ctx context.Context, kind int, _ int64) outcome {
	o := outcome{kind: kind}
	start := time.Now()
	rel, err := f.svc.Query(ctx, f.w.sql[kind])
	o.lat = time.Since(start)
	if err != nil {
		o.err = err
		return o
	}
	o.got = answerOf(rel, f.ordered[kind])
	return o
}

func (f *serveFixture) counter(name string) int64 { return f.sink.Metrics.CounterValue(name) }

func (f *serveFixture) close() {
	if f.svc != nil {
		f.svc.Close()
	}
	if f.cluster != nil {
		f.cluster.Close()
	}
	for _, srv := range f.servers {
		srv.Close()
	}
}

// serveReference runs every statement on a one-site cluster holding the
// whole dataset, with every optimization off.
func serveReference(w *workload, data tpcr.Config) ([]answer, error) {
	ordered, err := orderedStatements(w)
	if err != nil {
		return nil, err
	}
	c, err := skalla.NewLocalCluster(skalla.ClusterConfig{Sites: 1})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if _, err := c.Generate("tpcr", "tpcr", tpcr.GenParams(data)); err != nil {
		return nil, err
	}
	refs := make([]answer, len(w.sql))
	for i, q := range w.sql {
		rel, err := c.SQL(q, skalla.NoOptimizations)
		if err != nil {
			return nil, fmt.Errorf("reference %q: %w", q, err)
		}
		refs[i] = answerOf(rel, ordered[i])
	}
	return refs, nil
}

// orderedStatements reports which statements have an ORDER BY: their rows
// are compared in order, all others as sets.
func orderedStatements(w *workload) ([]bool, error) {
	out := make([]bool, len(w.sql))
	for i, q := range w.sql {
		st, err := sqlfe.Parse(q)
		if err != nil {
			return nil, err
		}
		out[i] = len(st.OrderBy) > 0
	}
	return out, nil
}

const (
	modelNs    = "model_ns"    // Σ per-round site + coordinator + modeled comm time
	serveNs    = "serve_ns"    // Σ serve.query_ns
	serveCount = "serve_count" // queries in serve.query_ns
)

var serveCounters = []string{
	"coord.rounds", "coord.bytes_to_sites", "coord.bytes_from_sites",
	"coord.groups_shipped", "coord.groups_received",
	"transport.bytes_sent", "transport.bytes_received", "transport.messages",
	"sched.site_gate_waits", "transport.hedges", "transport.hedge_wins",
	"transport.hedge_wasted_bytes", "transport.retries", "transport.budget_denied",
	"transport.pool.waits", "transport.pool.dials", "transport.failovers",
}

// counters snapshots the service's obs counters, plus the histogram sums
// named by the pseudo-counters above.
func (f *serveFixture) counters() counters {
	m := f.sink.Metrics
	c := counters{}
	for _, n := range serveCounters {
		c[n] = m.CounterValue(n)
	}
	for _, h := range []string{"coord.round_site_ns", "coord.round_coord_ns", "coord.round_comm_ns"} {
		c[modelNs] += m.Histogram(h).Snapshot().Sum
	}
	q := m.Histogram("serve.query_ns").Snapshot()
	c[serveNs], c[serveCount] = q.Sum, q.Count
	return c
}
