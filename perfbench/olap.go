package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/site"
	"repro/internal/tpcr"
	"repro/internal/transport"
	"repro/skalla"
)

// olapFixture runs the paper's query family on an in-process cluster
// whose links are modeled (skalla.DefaultWAN, accounted, never slept).
type olapFixture struct {
	w   *workload
	rec *recorder // nil on the public-API cluster
	run func(ctx context.Context, q gmdj.Query) (*relation.Relation, *core.ExecStats, error)
	// clients are the coordinator's site clients, for wire-stat deltas.
	clients []transport.Client
	closeFn func()
}

// newOlapCluster builds the untraced fixture through the public API:
// skalla.NewLocalCluster, sites generating their own partitions, and the
// TPCR distribution knowledge in the catalog.
func newOlapCluster(w *workload, data tpcr.Config) (*olapFixture, error) {
	c, err := skalla.NewLocalCluster(skalla.ClusterConfig{Sites: w.sites, Cost: skalla.DefaultWAN})
	if err != nil {
		return nil, err
	}
	if _, err := c.Generate("tpcr", "tpcr", tpcr.GenParams(data)); err != nil {
		c.Close()
		return nil, err
	}
	if err := fillCatalog(c.Catalog(), c.SiteIDs(), data); err != nil {
		c.Close()
		return nil, err
	}
	return &olapFixture{
		w: w,
		run: func(ctx context.Context, q gmdj.Query) (*relation.Relation, *core.ExecStats, error) {
			res, err := c.QueryContext(ctx, q, "tpcr", skalla.AllOptimizations)
			if err != nil {
				return nil, nil, err
			}
			return res.Relation, res.Stats, nil
		},
		clients: c.Coordinator().Clients(),
		closeFn: func() { c.Close() },
	}, nil
}

// newOlapAssembly builds the traced fixture from the same parts
// skalla.NewLocalCluster uses, with timing wrappers at the layer
// boundaries: site.NewEngine → timedHandler → transport.NewLocalClient →
// (wrap) → timedClient → core.NewCoordinator. wrap, when set, may insert
// a fault-injecting client (the self-test uses transport.NewChaos).
func newOlapAssembly(w *workload, data tpcr.Config, rec *recorder, wrap func(transport.Client) transport.Client) (*olapFixture, error) {
	ids := make([]string, w.sites)
	clients := make([]transport.Client, w.sites)
	for i := range clients {
		ids[i] = fmt.Sprintf("site%d", i)
		h := &timedHandler{inner: site.NewEngine(ids[i]), site: ids[i], rec: rec}
		var cl transport.Client = transport.NewLocalClient(ids[i], h, skalla.DefaultWAN)
		if wrap != nil {
			cl = wrap(cl)
		}
		clients[i] = &timedClient{Client: cl, rec: rec}
	}
	if err := generateAt(clients, data); err != nil {
		return nil, err
	}
	cat := catalog.New(ids...)
	if err := fillCatalog(cat, ids, data); err != nil {
		return nil, err
	}
	coord := core.NewCoordinator(clients...)
	egil := core.Egil{Catalog: cat, Options: skalla.AllOptimizations}
	return &olapFixture{
		w: w, rec: rec,
		run: func(ctx context.Context, q gmdj.Query) (*relation.Relation, *core.ExecStats, error) {
			rel, stats, _, err := coord.Run(ctx, q, "tpcr", egil)
			return rel, stats, err
		},
		clients: clients,
	}, nil
}

// generateAt has every site synthesize its own partition, as
// skalla.Cluster.Generate does.
func generateAt(clients []transport.Client, data tpcr.Config) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl transport.Client) {
			defer wg.Done()
			resp, err := cl.Call(context.Background(), &transport.Request{
				Op: transport.OpGenerate,
				Gen: &transport.GenSpec{Kind: "tpcr", Rel: "tpcr", Params: tpcr.GenParams(data),
					Site: i, NumSites: len(clients)},
			})
			if err == nil {
				err = resp.Error()
			}
			errs[i] = err
		}(i, cl)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("generate at %s: %w", clients[i].SiteID(), err)
		}
	}
	return nil
}

// fillCatalog records the distribution knowledge the paper's experiments
// use (bench.NewHarness does the same).
func fillCatalog(cat *catalog.Catalog, ids []string, data tpcr.Config) error {
	if err := tpcr.FillCatalog(cat, ids, data); err != nil {
		return err
	}
	return tpcr.FillValueDomains(cat, ids, data)
}

func (f *olapFixture) exec(ctx context.Context, kind int, seq int64) outcome {
	o := outcome{kind: kind}
	done := func() {}
	if f.rec != nil {
		ctx, done = f.rec.startQuery(ctx, fmt.Sprintf("q%06d", seq))
	}
	start := time.Now()
	rel, stats, err := f.run(ctx, f.w.olap[kind].q)
	o.lat = time.Since(start)
	done()
	if err != nil {
		o.err = err
		return o
	}
	o.got = answerOf(rel, false)
	o.bytes = stats.Bytes()
	o.model = stats.EvalTime()
	o.rounds = len(stats.Rounds)
	return o
}

func (f *olapFixture) close() {
	if f.closeFn != nil {
		f.closeFn()
	}
}

// counters sums the clients' cumulative wire statistics, named like the
// transport's obs counters.
func (f *olapFixture) counters() counters {
	c := counters{}
	for _, cl := range f.clients {
		s, r, m, _ := cl.Stats().Snapshot()
		c["transport.bytes_sent"] += s
		c["transport.bytes_received"] += r
		c["transport.messages"] += m
	}
	return c
}

// olapReference evaluates every query centrally over the whole dataset
// (the union of the partitions).
func olapReference(w *workload, data tpcr.Config) ([]answer, error) {
	whole := tpcr.Generate(data)
	refs := make([]answer, len(w.olap))
	for i, oq := range w.olap {
		rel, err := gmdj.EvalQuery(whole, oq.q)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", oq.name, err)
		}
		refs[i] = answerOf(rel, false)
	}
	return refs, nil
}
