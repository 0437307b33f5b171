package main

// Self-test of the benchmark at tiny sizes: every metric BENCHMARK.json
// names is reported, the correctness gate rejects a wrong reference and
// counts injected site errors, and a second seed passes with the same
// metric names. Run with `go test ./...` from this directory.

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"repro/internal/tpcr"
	"repro/internal/transport"
)

// tiny returns the named workload shrunk to a few thousand rows.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w, ok := workloads[name]
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.data = tpcr.Config{Rows: 3000, Customers: 200, Parts: 300, LowCardGroups: 100}
	return &w
}

func tinyRun(t *testing.T, o options) *report {
	t.Helper()
	o.seconds, o.setups, o.traceDir = 0.3, 2, t.TempDir()
	rep, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// spec reads the metric names BENCHMARK.json declares.
func spec(t *testing.T) (workloadNames []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	for _, w := range s.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range s.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return workloadNames, endToEnd, perLayer
}

func metricNames(rep *report) []string {
	var names []string
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestEveryMetricReported(t *testing.T) {
	names, endToEnd, perLayer := spec(t)
	if got, want := len(names), len(workloads); got != want {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", got, want)
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			rep := tinyRun(t, options{w: tiny(t, name), seed: 1, trace: trace})
			if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%v", name, trace, rep.correct, rep.attempted, rep.failed, rep.notes)
			}
			if got := metricNames(rep); len(got) != len(want) {
				t.Errorf("%s trace=%v: reports %v, BENCHMARK.json names %v", name, trace, got, want)
			}
			for m, unit := range want {
				v, ok := rep.metrics[m]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not reported", name, trace, m)
				case v.Unit != unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", name, trace, m, v.Unit, unit)
				case !trace && !(v.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
				}
			}
		}
	}
}

func TestCorruptReferenceFails(t *testing.T) {
	for _, name := range []string{"olap-wide", "serve-sql"} {
		rep := tinyRun(t, options{w: tiny(t, name), seed: 1, corruptRef: true})
		if rep.correct || rep.failed == 0 {
			t.Errorf("%s: a corrupted reference passed the gate (correct=%v failed=%d)", name, rep.correct, rep.failed)
		}
	}
}

func TestInjectedSiteErrorCounted(t *testing.T) {
	wrap := func(cl transport.Client) transport.Client {
		if cl.SiteID() != "site0" {
			return cl
		}
		ch := transport.NewChaos(cl, 1)
		ch.FailNext(transport.OpEvalBase, 1)
		ch.FailNext(transport.OpEvalRounds, 1)
		return ch
	}
	rep := tinyRun(t, options{w: tiny(t, "olap-scan"), seed: 1, trace: true, wrap: wrap})
	if rep.correct || rep.failed == 0 {
		t.Fatalf("injected site errors not counted: correct=%v attempted=%d failed=%d", rep.correct, rep.attempted, rep.failed)
	}
	if rep.failed >= rep.attempted {
		t.Fatalf("every query failed (%d of %d); only the injected calls should", rep.failed, rep.attempted)
	}
}

func TestSecondSeed(t *testing.T) {
	for _, name := range []string{"olap-scan", "serve-sql"} {
		a := tinyRun(t, options{w: tiny(t, name), seed: 1})
		b := tinyRun(t, options{w: tiny(t, name), seed: 2})
		if !b.correct || b.failed != 0 {
			t.Fatalf("%s seed 2: correct=%v failed=%d\n%v", name, b.correct, b.failed, b.notes)
		}
		if ma, mb := metricNames(a), metricNames(b); len(ma) != len(mb) {
			t.Fatalf("%s: seed 1 reports %v, seed 2 %v", name, ma, mb)
		} else {
			for i := range ma {
				if ma[i] != mb[i] {
					t.Fatalf("%s: seed 1 reports %v, seed 2 %v", name, ma, mb)
				}
			}
		}
	}
}
