package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tpcr"
	"repro/internal/transport"
)

// options configure one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times an untraced run sets up; setup_s is their
	// median. traceDir receives the Chrome trace of a traced run.
	setups   int
	traceDir string

	// Self-test hooks. w replaces the named workload; corruptRef flips
	// the reference digest of the first statement; wrap inserts a client
	// (e.g. transport.NewChaos) under the traced olap assembly's timing
	// client.
	w          *workload
	corruptRef bool
	wrap       func(transport.Client) transport.Client
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of a run: the gate's verdict, the metrics, and
// human-readable notes printed before the JSON line.
type report struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
	notes             []string
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect with a reason.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.notef("FAIL: "+format, args...)
}

// outcome is one executed statement as the client saw it.
type outcome struct {
	kind  int
	lat   time.Duration
	err   error
	got   answer
	wrong bool
	// identical: the answer is byte-identical to the reference, floats
	// included.
	identical bool
	// olap only, from ExecStats.
	bytes  int64
	model  time.Duration
	rounds int
}

func (o outcome) ok() bool { return o.err == nil && !o.wrong }

// fixture is a running cluster the clients query. seq numbers the query
// within the run (negative during warm-up). counters snapshots the
// fixture's cumulative traffic and service counters.
type fixture interface {
	exec(ctx context.Context, kind int, seq int64) outcome
	counters() counters
	close()
}

// counters is a snapshot of named cumulative counts.
type counters map[string]int64

func (c counters) sub(o counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

func run(o options) (*report, error) {
	w := o.w
	if w == nil {
		wl, ok := workloads[o.workload]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
		}
		w = &wl
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	data := w.data
	data.Seed = o.seed
	rep := &report{correct: true, metrics: map[string]metric{}}
	rep.notef("workload %s: seed %d, %d sites x %d replicas, %d rows, %d parts, %d clients, %d statements",
		w.name, o.seed, w.sites, max(w.replicas, 1), data.Rows, data.Defaults().Parts, w.clients, w.mixLen())

	var refs []answer
	var err error
	if w.olap != nil {
		refs, err = olapReference(w, data)
	} else {
		refs, err = serveReference(w, data)
	}
	if err != nil {
		return nil, err
	}
	if o.corruptRef {
		refs[0].exact[0] ^= 0xff
	}
	// The reference relations are garbage now; collect them so they stay
	// out of the measured phase's heap.
	runtime.GC()

	b := &bencher{o: o, w: w, data: data, refs: refs, rep: rep}
	if o.trace {
		err = b.traced()
	} else {
		err = b.untraced()
	}
	if err != nil {
		return nil, err
	}
	rep.notef("answers byte-identical to the reference, floats included: %d of %d", b.identical, rep.attempted)
	if rep.failed > 0 {
		rep.fail("%d of %d queries failed or answered wrong", rep.failed, rep.attempted)
	}
	rep.notef("failed_ratio %.6f (%d of %d)", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	return rep, nil
}

// bencher holds one run's state.
type bencher struct {
	o    options
	w    *workload
	data tpcr.Config
	refs []answer
	rep  *report
	// identical counts the answers byte-identical to the reference.
	identical int
}

// build starts a fixture. olap workloads use the public-API cluster when
// rec is nil and the traced assembly otherwise; serve-sql always wraps
// its site handlers (a disabled recorder makes the wrappers pass-through).
func (b *bencher) build(rec *recorder) (fixture, error) {
	if b.w.olap == nil {
		if rec == nil {
			rec = newRecorder()
		}
		return newServeFixture(b.w, b.data, rec)
	}
	if rec == nil {
		return newOlapCluster(b.w, b.data)
	}
	return newOlapAssembly(b.w, b.data, rec, b.o.wrap)
}

// setup builds a fixture and runs one warm-up pass of the mix, which also
// fills the sites' first-touch caches. It returns the fixture, the set-up
// time and the warm-up outcomes, which pass the correctness gate too.
func (b *bencher) setup(rec *recorder) (fixture, time.Duration, []outcome, error) {
	start := time.Now()
	f, err := b.build(rec)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("set up %s: %w", b.w.name, err)
	}
	warm := make([]outcome, b.w.mixLen())
	for k := range warm {
		warm[k] = b.check(f.exec(context.Background(), k, -int64(k+1)))
	}
	d := time.Since(start)
	b.count(warm)
	return f, d, warm, nil
}

// check applies the correctness gate to one outcome.
func (b *bencher) check(o outcome) outcome {
	if o.err == nil {
		ok, identical := b.refs[o.kind].matches(&o.got)
		o.wrong, o.identical = !ok, identical
	}
	return o
}

// count adds outcomes to the gate's tally. Every error counts, retried
// or not: the clients never retry.
func (b *bencher) count(outs []outcome) {
	for _, o := range outs {
		b.rep.attempted++
		if o.identical {
			b.identical++
		}
		if o.ok() {
			continue
		}
		b.rep.failed++
		if b.rep.failed > 5 {
			continue
		}
		if o.err != nil {
			b.rep.notef("statement %d error: %v", o.kind, o.err)
		} else {
			b.rep.notef("statement %d: wrong answer (%d rows, reference %d rows)", o.kind, o.got.rows, b.refs[o.kind].rows)
		}
	}
}

// untraced measures the end-to-end metrics: set up several times (setup_s
// is the median), then run the clients for the measured phase.
func (b *bencher) untraced() error {
	var f fixture
	var setups []float64
	for i := 0; i < max(b.o.setups, 1); i++ {
		if f != nil {
			f.close()
			runtime.GC()
		}
		var d time.Duration
		var err error
		if f, d, _, err = b.setup(nil); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	defer f.close()
	runtime.GC()
	ph := b.measure(f, b.o.seconds)
	b.count(ph.outs)

	r := b.rep
	lat := ph.latencies()
	n := float64(max(len(lat), 1))
	r.set("latency_p50_ms", "ms", ms(percentile(lat, 50)))
	r.set("latency_p90_ms", "ms", ms(percentile(lat, 90)))
	r.set("latency_p99_ms", "ms", ms(percentile(lat, 99)))
	r.set("throughput_qps", "1/s", float64(len(lat))/ph.elapsed.Seconds())
	if b.w.sql != nil {
		r.set("model_eval_ms", "ms", float64(ph.d[modelNs])/1e6/n)
		r.set("bytes_per_query", "bytes", float64(ph.d["coord.bytes_to_sites"]+ph.d["coord.bytes_from_sites"])/n)
	} else {
		r.set("model_eval_ms", "ms", ph.mixMedian(func(o outcome) float64 { return ms(o.model) }))
		r.set("bytes_per_query", "bytes", ph.mixMedian(func(o outcome) float64 { return float64(o.bytes) }))
	}
	r.set("setup_s", "s", median(setups))
	r.set("mem_peak_mb", "MiB", float64(ph.peakHeap)/(1<<20))
	r.notef("measured %d queries in %.2fs (%d answered right); set-ups %v s", len(ph.outs), ph.elapsed.Seconds(), len(lat), setups)
	b.perStatement(ph)
	return nil
}

// phase is one measured closed-loop phase, or several added together.
type phase struct {
	outs     []outcome
	elapsed  time.Duration
	peakHeap uint64
	// d holds the fixture's counter deltas; alloc, gcs and pauseNs the
	// runtime's (bytes allocated, GC cycles, GC pause time).
	d                   counters
	alloc, gcs, pauseNs uint64
}

// add accumulates another phase into p.
func (p *phase) add(o *phase) {
	p.outs = append(p.outs, o.outs...)
	p.elapsed += o.elapsed
	p.peakHeap = max(p.peakHeap, o.peakHeap)
	if p.d == nil {
		p.d = counters{}
	}
	p.d.add(o.d)
	p.alloc, p.gcs, p.pauseNs = p.alloc+o.alloc, p.gcs+o.gcs, p.pauseNs+o.pauseNs
}

// latencies returns the sorted latencies of the right answers.
func (p *phase) latencies() []time.Duration {
	var lat []time.Duration
	for _, o := range p.outs {
		if o.ok() {
			lat = append(lat, o.lat)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat
}

// mixMedian is the mean over the statements of the mix of each
// statement's median of f: one pass of the mix, whatever the number of
// times each statement ran.
func (p *phase) mixMedian(f func(outcome) float64) float64 {
	per := map[int][]float64{}
	for _, o := range p.outs {
		if o.ok() {
			per[o.kind] = append(per[o.kind], f(o))
		}
	}
	var sum float64
	for _, vs := range per {
		sum += median(vs)
	}
	return sum / float64(max(len(per), 1))
}

// measure runs the workload's closed-loop clients for the given seconds:
// each client issues its next statement when the previous one has
// answered, cycling through the mix. The heap is sampled throughout.
func (b *bencher) measure(f fixture, seconds float64) *phase {
	ph := &phase{}
	dur := time.Duration(seconds * float64(time.Second))
	stop := make(chan struct{})
	peak := make(chan uint64)
	go func() { peak <- sampleHeap(stop) }()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := f.counters()

	var seq atomic.Int64
	outs := make([][]outcome, b.w.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range outs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dur {
				n := seq.Add(1) - 1
				outs[c] = append(outs[c], b.check(f.exec(context.Background(), int(n%int64(b.w.mixLen())), n)))
			}
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.d = f.counters().sub(c0)
	runtime.ReadMemStats(&m1)
	ph.alloc, ph.gcs, ph.pauseNs = m1.TotalAlloc-m0.TotalAlloc, uint64(m1.NumGC-m0.NumGC), m1.PauseTotalNs-m0.PauseTotalNs
	close(stop)
	ph.peakHeap = <-peak
	for _, o := range outs {
		ph.outs = append(ph.outs, o...)
	}
	return ph
}

// sampleHeap returns the peak of the heap's object bytes (live plus not
// yet swept), sampled every millisecond until stop closes.
func sampleHeap(stop <-chan struct{}) uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		peak = max(peak, s[0].Value.Uint64())
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank p-th percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// perStatement notes each statement's median latency and run count.
func (b *bencher) perStatement(ph *phase) {
	per := make([][]float64, b.w.mixLen())
	for _, o := range ph.outs {
		if o.ok() {
			per[o.kind] = append(per[o.kind], ms(o.lat))
		}
	}
	for k, vs := range per {
		b.rep.notef("  statement %d: p50 %.2f ms over %d runs: %s", k, median(vs), len(vs), b.w.statement(k))
	}
}
