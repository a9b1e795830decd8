package protocol

import (
	"testing"

	"gossipbnb/internal/code"
)

// TestStarvingProbeCarriesPush: a starving core sends one message per probe,
// in both gossip modes. Its first probe is a bare request; every probe after
// a failed request carries the table push — the table's current snapshot, or
// under DiffGossip its digest — and nothing else goes out beside it.
func TestStarvingProbeCarriesPush(t *testing.T) {
	for _, diff := range []bool{false, true} {
		e := newEnv(t, 6, Config{DiffGossip: diff, RetryDelay: 1, RequestTimeout: 3, RecoveryQuiet: 1000}, []NodeID{1})
		probe := func(at float64) WorkRequest {
			t.Helper()
			e.clk.t = at
			if dec := e.core.Starve(); dec != StarveRequested {
				t.Fatalf("diff=%v: starve at %g = %v, want a request", diff, at, dec)
			}
			out := e.snd.take()
			if len(out) != 1 {
				t.Fatalf("diff=%v: a probe at %g sent %d messages, want 1: %+v", diff, at, len(out), out)
			}
			req, ok := out[0].m.(WorkRequest)
			if !ok {
				t.Fatalf("diff=%v: a probe at %g sent a %T", diff, at, out[0].m)
			}
			return req
		}
		if req := probe(0); req.Pushed() {
			t.Errorf("diff=%v: the first probe after starvation carries a push: %+v", diff, req)
		}
		// Learned completions change the table between probes; each probe
		// after a deny carries the table as it is then. Codes at depth 3 of
		// distinct parents do not contract, so diff mode relays none of them
		// and no report leaves beside the probe.
		learned := []code.Code{
			code.Root().Child(1, 0).Child(2, 0).Child(3, 1),
			code.Root().Child(1, 1).Child(2, 0).Child(3, 0),
			code.Root().Child(1, 0).Child(2, 1).Child(3, 1),
			nil, nil, // past RecoveryPatience: the probes go on, the quiet window holds
		}
		for i, cd := range learned {
			at := float64(2*i + 2)
			e.clk.t = at - 1
			e.core.HandleMessage(1, WorkDeny{})
			if cd != nil {
				e.core.HandleMessage(1, Report{Codes: []code.Code{cd}})
			}
			req := probe(at)
			switch {
			case !diff && (req.push != pushTable || req.table != e.core.table.Snapshot()):
				t.Errorf("probe %d: %+v, want the table's snapshot of %d codes", i+1, req, e.core.table.Len())
			case diff && (req.push != pushDigest || req.digest != e.core.table.Digest()):
				t.Errorf("diff probe %d: %+v, want the table's digest %#x", i+1, req, e.core.table.Digest())
			}
		}
		if got, want := e.core.Counters().TablesSent, len(learned); got != want {
			t.Errorf("diff=%v: TablesSent = %d after %d pushing probes", diff, got, want)
		}
	}
}

// TestPushOnProbeCompletesReceiver: a request whose push completes the
// receiver's table is answered with the root report, not a deny, and the
// receiver then detects termination itself. Under DiffGossip a starving
// receiver whose digest differs from the carried one walks the requester's
// table, as a bare digest push would make it do.
func TestPushOnProbeCompletesReceiver(t *testing.T) {
	left, right := code.Root().Child(1, 0), code.Root().Child(1, 1)
	rx := newEnv(t, 4, Config{}, []NodeID{1})
	rx.core.HandleMessage(1, Report{Codes: []code.Code{left}})
	tx := newEnv(t, 4, Config{}, []NodeID{0})
	tx.core.HandleMessage(0, Report{Codes: []code.Code{right}})
	tx.core.Starve()
	tx.snd.take()
	tx.core.HandleMessage(0, WorkDeny{})
	tx.clk.t = 1
	tx.core.Starve()
	out := tx.snd.take()
	if len(out) != 1 {
		t.Fatalf("the starving probe is %d messages", len(out))
	}
	rx.core.HandleMessage(1, out[0].m)
	ans := rx.snd.take()
	if len(ans) != 1 || ans[0].to != 1 || !isRootReport(ans[0].m) {
		t.Fatalf("a request whose push completes the table was answered with %+v, want one root report to the requester", ans)
	}
	if _, st := rx.core.Next(); st != Terminated || rx.core.learned {
		t.Errorf("after the completing push, Next = %v (learned %v), want a detection", st, rx.core.learned)
	}

	drx := newEnv(t, 4, Config{DiffGossip: true}, []NodeID{1})
	drx.core.HandleMessage(1, DigestReport{Codes: []code.Code{left}})
	drx.snd.take()
	drx.clk.t = 100 // past the quiet gate
	req := WorkRequest{push: pushDigest, digest: 0x5eed}
	drx.core.HandleMessage(1, req)
	ans = drx.snd.take()
	if len(ans) != 2 {
		t.Fatalf("diff receiver sent %+v, want a subtree request then a deny", ans)
	}
	if _, ok := ans[0].m.(SubtreeRequest); !ok || ans[0].to != 1 {
		t.Errorf("first answer %+v, want a SubtreeRequest to the requester", ans[0])
	}
	if _, ok := ans[1].m.(WorkDeny); !ok {
		t.Errorf("second answer %T, want WorkDeny", ans[1].m)
	}
}
