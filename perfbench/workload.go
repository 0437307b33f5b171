package main

import (
	"repro/internal/bench"
	"repro/internal/gmdj"
	"repro/internal/tpcr"
)

// workload is one input set of the benchmark: a dataset shape generated
// from the run's seed, a cluster shape, and the query mix one or more
// closed-loop clients cycle through.
type workload struct {
	name string
	// sites is the number of logical sites; replicas > 1 runs each site
	// as that many TCP servers (serve-sql only).
	sites    int
	replicas int
	clients  int
	// data shapes the TPCR dataset; Seed is set per run.
	data tpcr.Config
	// olap lists the GMDJ queries of an in-process workload; sql the
	// statements of a serving workload. Exactly one is set.
	olap []olapQuery
	sql  []string
}

type olapQuery struct {
	name string
	q    gmdj.Query
}

// paperQueries is the paper's query family grouped on attr: group
// reduction (Fig. 2/4), coalescing (Fig. 3) and combined (Fig. 5).
func paperQueries(attr string) []olapQuery {
	return []olapQuery{
		{"group_reduction(" + attr + ")", bench.GroupReductionQuery(attr)},
		{"coalescing(" + attr + ")", bench.CoalescingQuery(attr)},
		{"combined(" + attr + ")", bench.CombinedQuery(attr)},
	}
}

// serveMix is the query mix of the skalla-bench serve experiment
// (bench.serveQueryMix) plus one wide GROUP BY that ships ~2000 groups
// and returns a top-10. The ORDER BY is total, so the LIMIT picks the same
// rows on every plan.
var serveMix = []string{
	"SELECT RegionKey, count(*) AS cnt, avg(ExtendedPrice) AS avg_price FROM tpcr GROUP BY RegionKey",
	"SELECT MktSegment, count(*) AS lines FROM tpcr GROUP BY MktSegment",
	"SELECT RegionKey, MktSegment, sum(Quantity) AS qty FROM tpcr GROUP BY RegionKey, MktSegment",
	"SELECT RegionKey, sum(ExtendedPrice) AS revenue FROM tpcr WHERE Discount > 0.02 GROUP BY RegionKey",
	"SELECT PartKey, sum(Quantity) AS qty, count(*) AS cnt FROM tpcr GROUP BY PartKey ORDER BY qty DESC, PartKey LIMIT 10",
}

// workloads are the benchmark's workloads by name. README.md records why
// each was chosen and which layer dominates it.
var workloads = map[string]workload{
	// PartKey is not a partition attribute: every round ships the whole
	// ~10k-group base-result structure to all eight sites and back, so
	// codec, row/column conversion and coordinator merge dominate.
	"olap-wide": {
		name: "olap-wide", sites: 8, clients: 1,
		data: tpcr.Config{Rows: 24000, Customers: 4000, Parts: 5000, LowCardGroups: 2000},
		olap: paperQueries("PartKey"),
	},
	// Few groups over many detail rows: the site kernels' detail scan
	// dominates and X is tiny. CustGroup is a partition attribute, so
	// its queries fuse to one round (Fig. 4 shape).
	"olap-scan": {
		name: "olap-scan", sites: 8, clients: 1,
		data: tpcr.Config{Rows: 200000, Customers: 4000, LowCardGroups: 2000},
		olap: append(paperQueries("ShipMode"), paperQueries("CustGroup")...),
	},
	// Short GROUP BYs through the concurrent query service over real TCP,
	// two replicas per site: fixed per-query costs dominate.
	"serve-sql": {
		name: "serve-sql", sites: 4, replicas: 2, clients: 2,
		data: tpcr.Config{Rows: 24000, Customers: 4000, LowCardGroups: 2000},
		sql:  serveMix,
	},
}

// mixLen is the number of distinct statements the clients cycle through.
func (w *workload) mixLen() int {
	if w.olap != nil {
		return len(w.olap)
	}
	return len(w.sql)
}

// statement names statement k of the mix.
func (w *workload) statement(k int) string {
	if w.olap != nil {
		return w.olap[k].name
	}
	return w.sql[k]
}
