package main

// Tracing for the per-layer metrics. Spans are recorded from outside the
// program: a timing transport.Client wraps each coordinator-side client, a
// timing transport.Handler wraps each site engine, and the client loop
// times whole queries. Spans stay in memory and are written out once, as
// one Chrome trace, when the run ends.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// span is one timed interval at a layer boundary.
type span struct {
	id, parent int64
	name       string // "query", "call:<op>", "handle:<op>"
	site       string
	query      string // query ID shared by every span of one query
	round      int    // eval round within the query (-1: not an eval op)
	start, end time.Duration
	computeNs  int64 // Response.ComputeNs (handle spans)
	rowsIn     int   // Request.Base rows (call spans)
	rowsOut    int   // Response.Rel rows (call spans)
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder collects spans while enabled; disabled, the wrappers only
// forward calls.
type recorder struct {
	on     atomic.Bool
	nextID atomic.Int64
	t0     time.Time

	mu sync.Mutex
	//lint:guarded-by mu
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.t0) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and clears the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

type ctxKey int

const (
	queryKey ctxKey = iota // *queryCtx
	callKey                // *span: the enclosing client call
)

// queryCtx carries a query's ID and its per-site eval-call counters, which
// number the rounds: every round sends exactly one request per site.
type queryCtx struct {
	id   string
	span int64

	mu sync.Mutex
	//lint:guarded-by mu
	evals map[string]int
}

func (q *queryCtx) nextRound(site string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := q.evals[site]
	q.evals[site] = n + 1
	return n
}

func isEval(op transport.Op) bool {
	return op == transport.OpEvalBase || op == transport.OpEvalRounds
}

// startQuery opens a query span; the returned function closes it.
func (r *recorder) startQuery(ctx context.Context, id string) (context.Context, func()) {
	if !r.on.Load() {
		return ctx, func() {}
	}
	q := &queryCtx{id: id, span: r.nextID.Add(1), evals: map[string]int{}}
	start := r.now()
	return context.WithValue(ctx, queryKey, q), func() {
		r.add(span{id: q.span, name: "query", query: id, round: -1, start: start, end: r.now()})
	}
}

// timedClient is a transport.Client that records a span per call, with
// the request's shipped base rows and the response's result rows.
type timedClient struct {
	transport.Client
	rec *recorder
}

func (c *timedClient) Call(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	if !c.rec.on.Load() {
		return c.Client.Call(ctx, req)
	}
	s := span{id: c.rec.nextID.Add(1), name: "call:" + req.Op.String(), site: c.SiteID(), round: -1}
	if q, ok := ctx.Value(queryKey).(*queryCtx); ok {
		s.parent, s.query = q.span, q.id
		if isEval(req.Op) {
			s.round = q.nextRound(s.site)
		}
	}
	if req.Base != nil {
		s.rowsIn = req.Base.Len()
	}
	s.start = c.rec.now()
	resp, err := c.Client.Call(context.WithValue(ctx, callKey, &s), req)
	s.end = c.rec.now()
	if err == nil && resp.Rel != nil {
		s.rowsOut = resp.Rel.Len()
	}
	c.rec.add(s)
	return resp, err
}

// timedHandler is a transport.Handler that records a span per request.
// In process, the enclosing call span arrives through the context; over
// TCP the request's QueryID and Round name the query instead.
type timedHandler struct {
	inner transport.Handler
	site  string
	rec   *recorder
}

func (h *timedHandler) Handle(ctx context.Context, req *transport.Request) *transport.Response {
	if !h.rec.on.Load() {
		return h.inner.Handle(ctx, req)
	}
	s := span{id: h.rec.nextID.Add(1), name: "handle:" + req.Op.String(), site: h.site,
		query: req.QueryID, round: -1}
	if isEval(req.Op) {
		s.round = req.Round
	}
	if call, ok := ctx.Value(callKey).(*span); ok {
		s.parent, s.query, s.round = call.id, call.query, call.round
	}
	s.start = h.rec.now()
	resp := h.inner.Handle(ctx, req)
	s.end = h.rec.now()
	s.computeNs = resp.ComputeNs
	h.rec.add(s)
	return resp
}

// writeChromeTrace writes spans in the Chrome trace_event format: one
// thread per site (and one for queries), complete events in microseconds.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	tids := map[string]int{"": 0}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		tid, ok := tids[s.site]
		if !ok {
			tid = len(tids)
			tids[s.site] = tid
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: tid,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]string{"query": s.query, "site": s.site,
				"id": strconv.FormatInt(s.id, 10), "parent": strconv.FormatInt(s.parent, 10),
				"round": strconv.Itoa(s.round)},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
