package skalla

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/site"
	"repro/internal/transport"
)

// oldSite wraps a site engine and, once downgraded, answers pings the way
// a site built before protocol versioning does: successfully, with no
// Version (gob omits the zero field, so the coordinator reads 0).
type oldSite struct {
	eng        *site.Engine
	downgraded atomic.Bool
}

func (s *oldSite) Handle(ctx context.Context, req *transport.Request) *transport.Response {
	resp := s.eng.Handle(ctx, req)
	if req.Op == transport.OpPing && s.downgraded.Load() {
		resp.Version = 0
	}
	return resp
}

func startOldSite(t *testing.T, downgraded bool) (string, *oldSite) {
	t.Helper()
	parts, _ := flowParts(1)
	h := &oldSite{eng: site.NewEngine("old")}
	h.eng.Load("flow", parts[0])
	h.downgraded.Store(downgraded)
	srv := transport.NewServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, h
}

// TestConnectRefusesOldProtocol: a site that answers pings without the
// current protocol version is refused at connect time with a typed
// ErrProtocol — also when partial results are allowed, since a
// mismatched peer is misconfigured rather than down.
func TestConnectRefusesOldProtocol(t *testing.T) {
	parts, _ := flowParts(2)
	good, _ := startFlowSite(t, "site0", parts[0], 1)
	old, _ := startOldSite(t, true)
	for _, partial := range []bool{false, true} {
		cluster, err := ConnectWith(ConnectConfig{
			Sites: []string{good, old}, Attempts: 1, Backoff: time.Millisecond,
			CallTimeout: time.Second, AllowPartial: partial,
		})
		if err == nil {
			cluster.Close()
			t.Fatalf("partial=%v: old-protocol site accepted", partial)
		}
		if !errors.Is(err, transport.ErrProtocol) {
			t.Fatalf("partial=%v: error %v does not wrap ErrProtocol", partial, err)
		}
	}
}

// TestStatusAndReadinessRefuseOldProtocol: a site that turns out to speak
// an old protocol after connect shows as unreachable in Status and keeps
// the query service not ready, even with AllowPartial.
func TestStatusAndReadinessRefuseOldProtocol(t *testing.T) {
	parts, _ := flowParts(2)
	good, _ := startFlowSite(t, "site0", parts[0], 1)
	addr, old := startOldSite(t, false)
	cluster, err := ConnectWith(ConnectConfig{
		Sites: []string{good, addr}, Attempts: 1, Backoff: time.Millisecond,
		CallTimeout: time.Second, AllowPartial: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	svc, err := NewQueryService(cluster, ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if ok, reason := svc.CheckReady(); !ok {
		t.Fatalf("not ready before the downgrade: %s", reason)
	}

	old.downgraded.Store(true)
	sts := cluster.Status("flow")
	if !sts[0].Reachable {
		t.Errorf("site0 unreachable: %s", sts[0].Err)
	}
	if sts[1].Reachable || !strings.Contains(sts[1].Err, "protocol version") {
		t.Errorf("old site status = %+v, want unreachable with a protocol error", sts[1])
	}
	if ok, reason := svc.CheckReady(); ok {
		t.Fatal("ready with an old-protocol site")
	} else if !strings.Contains(reason, "protocol version") {
		t.Errorf("reason %q does not name the protocol mismatch", reason)
	}
}

// refusingSite answers every request with a shed refusal of one code.
type refusingSite int

func (c refusingSite) Handle(context.Context, *transport.Request) *transport.Response {
	return &transport.Response{Err: "refused", Code: int(c)}
}

// TestConnectAcceptsRefusingSite: a site that answers the connect ping
// with a draining or overloaded refusal is up, so connect succeeds
// without AllowPartial; the version check applies to served pings only.
func TestConnectAcceptsRefusingSite(t *testing.T) {
	for _, code := range []int{transport.CodeDraining, transport.CodeOverloaded} {
		srv := transport.NewServer(refusingSite(code))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := ConnectWith(ConnectConfig{
			Sites: []string{addr}, Attempts: 1, Backoff: time.Millisecond,
			CallTimeout: time.Second,
		})
		if err != nil {
			t.Errorf("code %d: connect refused: %v", code, err)
		} else {
			cluster.Close()
		}
		srv.Close()
	}
}
