package main

import (
	"sort"
	"strings"
	"time"
)

// spanStats are the per-layer sums derived from one traced phase's spans.
type spanStats struct {
	coordSelf   time.Duration // query spans minus the union of their calls
	call        time.Duration // client call spans
	callSelf    time.Duration // call spans minus their handler spans
	handle      time.Duration // site handler spans
	compute     time.Duration // Response.ComputeNs of handled requests
	handleCrit  time.Duration // per round, the slowest site's handler span
	straggler   float64       // median over rounds of max/median handler span
	rowsShipped int64         // Request.Base rows
	rowsBack    int64         // Response.Rel rows
}

func analyze(spans []span) spanStats {
	var st spanStats
	children := map[int64][]span{}
	type roundKey struct {
		query string
		round int
	}
	rounds := map[roundKey][]time.Duration{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
		switch {
		case isCall(s):
			st.call += s.dur()
			st.rowsShipped += int64(s.rowsIn)
			st.rowsBack += int64(s.rowsOut)
		case strings.HasPrefix(s.name, "handle:"):
			st.handle += s.dur()
			st.compute += time.Duration(s.computeNs)
			if s.round >= 0 && s.query != "" {
				k := roundKey{s.query, s.round}
				rounds[k] = append(rounds[k], s.dur())
			}
		}
	}
	for _, s := range spans {
		switch {
		case s.name == "query":
			st.coordSelf += s.dur() - covered(s, children[s.id])
		case isCall(s):
			st.callSelf += s.dur() - covered(s, children[s.id])
		}
	}
	var ratios []float64
	for _, ds := range rounds {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		max := ds[len(ds)-1]
		st.handleCrit += max
		if med := ds[(len(ds)-1)/2]; med > 0 {
			ratios = append(ratios, float64(max)/float64(med))
		}
	}
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		st.straggler = ratios[(len(ratios)-1)/2]
	}
	return st
}

func isCall(s span) bool { return strings.HasPrefix(s.name, "call:") }

// covered returns how much of parent's interval its children cover: the
// length of the union of their intervals, clipped to the parent.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, parent.start), min(k.end, parent.end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	return total + curB - curA
}
