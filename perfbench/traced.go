package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gmdj"
	"repro/internal/relation"
	sqlfe "repro/internal/sql"
	"repro/internal/tpcr"
	"repro/internal/transport"
	"repro/skalla"
)

// slackPerMsg bounds how many bytes one message may differ between two
// executions of the same statement: responses carry measured times
// (Response.ComputeNs, SiteProfile.WallNs) and requests the remaining
// deadline, whose gob varints grow and shrink by a few bytes with the
// timing. Everything else on the wire is identical.
const slackPerMsg = 8

// traceChunk is how long the traced run measures before switching the
// recorder on or off. Halves that alternate second by second see the same
// host conditions, so their difference is the tracing overhead.
const traceChunk = 1.0

// traced is the separate traced run. It measures one fixture with the
// recorder switched off and on in alternating chunks: olap workloads on
// the traced assembly, serve-sql with its handler wrappers. Both halves
// must move the rounds and bytes their statements moved when run alone
// untraced: for olap, in the warm-up pass on the public-API cluster; for
// serve-sql, run serially one by one. (Result rows are checked by the
// correctness gate.)
func (b *bencher) traced() error {
	rec := newRecorder()
	var sig []signature
	if b.w.olap != nil {
		f, _, warm, err := b.setup(nil)
		if err != nil {
			return err
		}
		f.close()
		runtime.GC()
		sig = b.olapSignatures(warm)
	}
	f, _, _, err := b.setup(rec)
	if err != nil {
		return err
	}
	defer f.close()
	if sv, ok := f.(*serveFixture); ok {
		sig = b.serveSignatures(sv)
	}
	var off, on phase
	chunk := min(traceChunk, b.o.seconds/2)
	for i := 0; i < 2 || (off.elapsed+on.elapsed).Seconds() < b.o.seconds; i++ {
		half := &off
		if i%2 == 1 {
			half = &on
		}
		rec.on.Store(half == &on)
		half.add(b.measure(f, chunk))
	}
	rec.on.Store(false)
	spans := rec.take()
	b.count(off.outs)
	b.count(on.outs)
	b.checkAgree("untraced", &off, sig)
	b.checkAgree("traced", &on, sig)

	latOff, latOn := off.latencies(), on.latencies()
	n := float64(max(len(latOn), 1))
	per := func(d time.Duration) float64 { return ms(d) / n }
	perK := func(v int64) float64 { return 1000 * float64(v) / n }
	st := analyze(spans)
	r := b.rep
	r.set("trace.overhead_pct", "%", 100*(ms(percentile(latOn, 50))/ms(percentile(latOff, 50))-1))
	r.set("core.coord_self_ms", "ms", per(st.coordSelf))
	r.set("transport.call_ms", "ms", per(st.call))
	r.set("transport.call_self_ms", "ms", per(st.callSelf))
	r.set("site.handle_ms", "ms", per(st.handle))
	r.set("site.compute_ms", "ms", per(st.compute))
	r.set("site.prep_ms", "ms", per(st.handle-st.compute))
	r.set("site.handle_crit_ms", "ms", per(st.handleCrit))
	r.set("site.straggler_ratio", "ratio", st.straggler)
	r.set("runtime.alloc_mb", "MiB", float64(on.alloc)/(1<<20)/n)
	r.set("runtime.gc_cycles", "count", float64(on.gcs)/n)
	r.set("runtime.gc_pause_ms", "ms", float64(on.pauseNs)/1e6/n)

	// The serving stack's counters read zero on the olap workloads, whose
	// rounds and groups come from ExecStats and the timing client.
	d := on.d
	if b.w.olap != nil {
		for _, o := range on.outs {
			d["coord.rounds"] += int64(o.rounds)
		}
		d["coord.groups_shipped"], d["coord.groups_received"] = st.rowsShipped, st.rowsBack
		r.set("core.admit_wait_ms", "ms", 0)
	} else {
		r.set("core.admit_wait_ms", "ms", ms(mean(latOn))-float64(d[serveNs])/1e6/float64(max(d[serveCount], 1)))
	}
	r.set("core.rounds", "count", float64(d["coord.rounds"])/n)
	r.set("core.groups_shipped", "count", float64(d["coord.groups_shipped"])/n)
	r.set("core.groups_received", "count", float64(d["coord.groups_received"])/n)
	r.set("transport.bytes_to_sites", "bytes", float64(d["transport.bytes_sent"])/n)
	r.set("transport.bytes_from_sites", "bytes", float64(d["transport.bytes_received"])/n)
	r.set("transport.msgs", "count", float64(d["transport.messages"])/n)
	r.set("core.gate_waits_per_kq", "count", perK(d["sched.site_gate_waits"]))
	r.set("transport.hedges_per_kq", "count", perK(d["transport.hedges"]))
	r.set("transport.hedge_win_ratio", "ratio", float64(d["transport.hedge_wins"])/float64(max(d["transport.hedges"], 1)))
	r.set("transport.hedge_wasted_bytes", "bytes", float64(d["transport.hedge_wasted_bytes"])/n)
	r.set("transport.retries_per_kq", "count", perK(d["transport.retries"]))
	r.set("transport.budget_denied_per_kq", "count", perK(d["transport.budget_denied"]))
	r.set("transport.pool_waits_per_kq", "count", perK(d["transport.pool.waits"]))
	if err := b.frontEnd(); err != nil {
		r.fail("front-end timing: %v", err)
	}

	if b.w.olap != nil {
		// A query's busy time is everything its layers did: the
		// coordinator's own time plus every client call (which contains
		// the site's handling).
		busy := st.coordSelf + st.call
		r.notef("design: site.handle_ms / transport.call_ms = %.3f; (transport.call_self_ms + core.coord_self_ms) / busy = %.3f",
			st.handle.Seconds()/max(st.call.Seconds(), 1e-12), (st.callSelf+st.coordSelf).Seconds()/max(busy.Seconds(), 1e-12))
	}
	path := filepath.Join(b.o.traceDir, "trace-"+b.w.name+".json")
	if err := writeChromeTrace(path, spans); err != nil {
		r.notef("trace not written: %v", err)
	} else {
		r.notef("chrome trace: %s (%d spans)", path, len(spans))
	}
	r.notef("traced %d queries, untraced %d", len(latOn), len(latOff))
	return nil
}

// signature is what one untraced execution of a statement moved: rounds,
// round bytes and wire messages.
type signature struct{ rounds, bytes, msgs int64 }

// olapSignatures reads the signatures off a warm-up pass; nil when a
// statement failed there (the gate has already counted it).
func (b *bencher) olapSignatures(warm []outcome) []signature {
	sig := make([]signature, len(warm))
	for k, o := range warm {
		if !o.ok() {
			return nil
		}
		// A round is one request and one response per site; planning
		// adds one relInfo exchange.
		sig[k] = signature{int64(o.rounds), o.bytes, int64(2 * (b.w.sites*o.rounds + 1))}
	}
	return sig
}

// serveSignatures runs every statement alone, three times, and records
// its signature from the service's counters. The fewest bytes of the
// three leave out one-off costs such as a new stream's type descriptors,
// which would otherwise be multiplied by how often the statement runs.
func (b *bencher) serveSignatures(f *serveFixture) []signature {
	sig := make([]signature, b.w.mixLen())
	for k := range sig {
		for i := 0; i < 3; i++ {
			c0 := f.counters()
			b.count([]outcome{b.check(f.exec(context.Background(), k, 0))})
			d := f.counters().sub(c0)
			s := signature{d["coord.rounds"], d["coord.bytes_to_sites"] + d["coord.bytes_from_sites"], d["transport.messages"]}
			if i == 0 || s.bytes < sig[k].bytes {
				sig[k] = s
			}
		}
	}
	return sig
}

// checkAgree compares what a phase moved with the sum of its statements'
// signatures: rounds exactly, bytes within the timing slack plus the type
// descriptors of the TCP streams the phase may have opened. Each pooled
// client opens at most one stream per replica, and each hedge, retry or
// failover tears down at most one stream, which is opened again once.
func (b *bencher) checkAgree(label string, ph *phase, sig []signature) {
	if sig == nil {
		return
	}
	var want signature
	var rounds, moved int64
	for _, o := range ph.outs {
		if !o.ok() {
			return // already failed; partial executions skew the counts
		}
		s := sig[o.kind]
		want = signature{want.rounds + s.rounds, want.bytes + s.bytes, want.msgs + s.msgs}
		rounds, moved = rounds+int64(o.rounds), moved+o.bytes
	}
	if b.w.sql != nil {
		rounds, moved = ph.d["coord.rounds"], ph.d["coord.bytes_to_sites"]+ph.d["coord.bytes_from_sites"]
	}
	streams := ph.d["transport.pool.dials"]*int64(b.w.replicas) +
		ph.d["transport.hedges"] + ph.d["transport.retries"] + ph.d["transport.failovers"]
	slack := slackPerMsg*want.msgs + streams*gobStreamBytes()
	if rounds != want.rounds {
		b.rep.fail("%s queries ran %d rounds; run alone untraced, the same statements ran %d", label, rounds, want.rounds)
	}
	if diff := moved - want.bytes; diff > slack || -diff > slack {
		b.rep.fail("%s queries moved %d bytes; run alone untraced, the same statements moved %d (slack %d for %d messages and %d streams)",
			label, moved, want.bytes, slack, want.msgs, streams)
	}
}

// frontEnd times the front-end layers on their own: sql.Parse of every
// statement (serve-sql only) and core.Egil.BuildPlan on the detail
// schema, reporting medians.
func (b *bencher) frontEnd() error {
	ids := make([]string, b.w.sites)
	for i := range ids {
		ids[i] = fmt.Sprintf("site%d", i)
	}
	cat := catalog.New(ids...)
	var err error
	if b.w.olap != nil {
		err = fillCatalog(cat, ids, b.data)
	} else {
		err = tpcr.FillCatalog(cat, ids, b.data)
	}
	if err != nil {
		return err
	}
	egil := core.Egil{Catalog: cat, Options: skalla.AllOptimizations}
	schema := tpcr.Schema()
	var parse, plan []float64
	for i := 0; i < 100; i++ {
		for k := 0; k < b.w.mixLen(); k++ {
			var q gmdj.Query
			if b.w.olap != nil {
				q = b.w.olap[k].q
			} else {
				t0 := time.Now()
				st, err := sqlfe.Parse(b.w.sql[k])
				parse = append(parse, us(time.Since(t0)))
				if err != nil {
					return err
				}
				if q, err = st.Query(); err != nil {
					return err
				}
			}
			t0 := time.Now()
			if _, err := egil.BuildPlan(q, "tpcr", schema); err != nil {
				return err
			}
			plan = append(plan, us(time.Since(t0)))
		}
	}
	b.rep.set("sql.parse_us", "us", median(parse))
	b.rep.set("core.plan_us", "us", median(plan))
	return nil
}

// gobStreamBytes bounds the bytes a new gob stream adds to its first
// request and response: the type descriptors gob sends once per stream.
func gobStreamBytes() int64 {
	rel := relation.New(tpcr.Schema())
	rel.Rows = append(rel.Rows, make(relation.Row, rel.Schema.Len()))
	vals := []any{
		&transport.Request{Op: transport.OpEvalRounds, Base: rel, Rounds: []transport.RoundSpec{{Aggs: [][]string{{"n"}}}},
			Gen: &transport.GenSpec{Params: map[string]int64{"n": 1}}},
		&transport.Response{Rel: rel, Profile: &transport.SiteProfile{WallNs: 1}},
	}
	var n int64
	for _, v := range vals {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if enc.Encode(v) != nil {
			return 0
		}
		first := buf.Len()
		if enc.Encode(v) != nil {
			return 0
		}
		n += int64(2*first - buf.Len())
	}
	return n
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(max(len(ds), 1))
}
