// Command perfbench is the repository's benchmark. It runs one workload
// (olap-wide, olap-scan or serve-sql) against the program's public entry
// points for a fixed time, checks every answer against the centralized
// reference, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a separate traced run). The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload olap-wide --seed 1 --seconds 30 --trace 0
//
// README.md in this directory lists the metrics, their units and layers,
// and why each workload was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated dataset")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a separate traced run")
	flag.Parse()
	o.setups, o.traceDir = 5, ".bench_build"
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}

	rep, err := run(o)
	if err != nil {
		fatalf("%v", err)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	out := map[string]any{
		"correct":   rep.correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
	if !rep.correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
