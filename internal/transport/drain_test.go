package transport

import (
	"context"
	"encoding/gob"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/value"
)

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// opBlockingHandler blocks OpEvalRounds until released and answers
// everything else immediately, so a test can pin one request in flight
// while still probing the server with pings.
type opBlockingHandler struct{ release chan struct{} }

func (h *opBlockingHandler) Handle(ctx context.Context, req *Request) *Response {
	if req.Op == OpEvalRounds {
		<-h.release
	}
	return &Response{}
}

// TestServerDrain: SIGTERM-style drain must stop accepting, flip /readyz
// to not-ready, refuse new requests on existing connections with a
// draining shed response, and still let the in-flight request finish.
func TestServerDrain(t *testing.T) {
	h := &opBlockingHandler{release: make(chan struct{})}
	srv := NewServer(h)
	o := obs.New()
	srv.Obs = o
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c, err := DialTCP("s", addr, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A second connection established pre-drain: its post-drain requests
	// must be shed, not serviced. Ping once so the server has actually
	// accepted it before the drain closes the listener.
	c2, err := DialTCP("s", addr, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}

	inflight := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), &Request{Op: OpEvalRounds})
		inflight <- err
	}()
	waitUntil(t, "request in flight", func() bool { return srv.Inflight() == 1 })

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(5 * time.Second) }()
	waitUntil(t, "server draining", func() bool { return srv.Draining() })

	if ready, reason := o.Health.Ready(); ready || reason != "draining" {
		t.Errorf("health = (%v, %q), want (false, draining)", ready, reason)
	}

	// New request on the surviving connection: shed with CodeDraining.
	resp, err := c2.Call(context.Background(), &Request{Op: OpPing})
	if err != nil {
		t.Fatalf("drain-time request should be shed, got transport error %v", err)
	}
	if resp.Code != CodeDraining || !errors.Is(resp.Error(), ErrDraining) {
		t.Fatalf("resp = %+v, want CodeDraining", resp)
	}

	// The in-flight request completes and the drain then finishes cleanly.
	close(h.release)
	if err := <-inflight; err != nil {
		t.Errorf("in-flight request lost during drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Errorf("drain: %v", err)
	}
	if got := o.Metrics.CounterValue("transport.server.drain_rejects"); got != 1 {
		t.Errorf("drain_rejects = %d, want 1", got)
	}
	if got := o.Events.CountKind(obs.EventDrain); got == 0 {
		t.Error("no drain events logged")
	}
}

// TestServerDrainTimeout: a request that outlives the deadline makes
// Drain return an error instead of hanging forever.
func TestServerDrainTimeout(t *testing.T) {
	h := &blockingHandler{release: make(chan struct{})}
	srv := NewServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialTCP("s", addr, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer close(h.release)

	go c.Call(context.Background(), &Request{Op: OpPing})
	waitUntil(t, "request in flight", func() bool { return srv.Inflight() == 1 })

	start := time.Now()
	if err := srv.Drain(50 * time.Millisecond); err == nil {
		t.Fatal("drain with a stuck request should time out")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("drain deadline not enforced")
	}
}

// TestServerDrainIdle: draining an idle server returns immediately.
func TestServerDrainIdle(t *testing.T) {
	srv := NewServer(newEchoHandler())
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(time.Second); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	// Close after Drain stays clean (listener already closed).
	if err := srv.Close(); err != nil {
		t.Fatalf("close after drain: %v", err)
	}
}

// bigResponseHandler answers every request with a response far larger
// than the socket buffers, so writing it blocks until the peer reads.
type bigResponseHandler struct{}

func (bigResponseHandler) Handle(ctx context.Context, req *Request) *Response {
	rel := relation.New(relation.MustSchema(relation.Column{Name: "s", Kind: value.KindString}))
	rel.MustAppend(value.NewString(strings.Repeat("x", 16<<20)))
	return &Response{Rel: rel}
}

// TestServerDrainWaitsForResponseWrite: a request whose handler has
// returned but whose response is still being written counts as in
// flight, so Drain waits for the write instead of closing the connection
// under it.
func TestServerDrainWaitsForResponseWrite(t *testing.T) {
	srv := NewServer(bigResponseHandler{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := gob.NewEncoder(conn).Encode(&Request{Op: OpEvalRounds}); err != nil {
		t.Fatal(err)
	}
	// The handler returns at once; the response write then blocks
	// because nobody reads it yet.
	waitUntil(t, "handler done", func() bool { return srv.Served() == 1 && srv.Inflight() == 0 })

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(5 * time.Second) }()
	select {
	case err := <-drained:
		t.Fatalf("drain finished (%v) with a response still unwritten", err)
	case <-time.After(50 * time.Millisecond):
	}
	var resp Response
	if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("response lost during drain: %v", err)
	}
	if resp.Rel == nil || len(resp.Rel.Rows[0][0].S) != 16<<20 {
		t.Fatal("response truncated")
	}
	if err := <-drained; err != nil {
		t.Errorf("drain: %v", err)
	}
}
