package protocol

import (
	"math"
	"testing"

	"gossipbnb/internal/code"
)

// --- the periodic duties, on the fake clock ----------------------------------

// tickAt runs Tick at clock time at and returns what the core sent.
func (e *env) tickAt(at float64) []sent {
	e.clk.t = at
	e.core.Tick()
	return e.snd.take()
}

// only keeps the sends whose message has the given kind.
func only(out []sent, kind byte) []sent {
	var keep []sent
	for _, s := range out {
		if s.m.Kind() == kind {
			keep = append(keep, s)
		}
	}
	return keep
}

// leaf is a depth-1 fake tree's leaf as an item.
func (e *env) leaf(b uint8) Item {
	it, _ := e.tree.Locate(code.Root().Child(1, b))
	return it
}

// TestTickReportDeadline: the report check comes every ReportTimeout and
// flushes the outbox only when it is overdue — waited ReportTimeout since the
// last flush, or, with AdaptiveReports, ReportBatch times the smoothed
// per-subproblem cost when that is longer.
func TestTickReportDeadline(t *testing.T) {
	e := newEnv(t, 1, Config{ReportTimeout: 10, ReportBatch: 100, ReportFanout: 1}, []NodeID{1})
	e.core.Stagger(0) // no RandFloat: no jitter, the first check is at 0
	if got := only(e.tickAt(0), KindReport); len(got) != 0 {
		t.Fatalf("check with an empty outbox sent %d reports", len(got))
	}
	e.clk.t = 1
	e.core.OnExpanded(e.leaf(0), Outcome{}, 0.01)
	if got := only(e.tickAt(9.9), KindReport); len(got) != 0 {
		t.Fatalf("Tick before the check sent %d reports", len(got))
	}
	if got := only(e.tickAt(10), KindReport); len(got) != 1 {
		t.Fatalf("check at 10 with a stale outbox sent %d reports, want 1", len(got))
	}
	// Fresh since a flush at 15: the check at 20 leaves it, the one at 30
	// flushes it.
	e.clk.t = 14
	e.core.OnExpanded(e.leaf(1), Outcome{}, 0.01)
	e.clk.t = 15
	e.core.FlushReport()
	e.snd.take()
	e.core.outbox.Insert(code.Root().Child(1, 0).Child(2, 0))
	if got := only(e.tickAt(20), KindReport); len(got) != 0 {
		t.Fatalf("check at 20, 5 after a flush, sent %d reports, want none", len(got))
	}
	if got := only(e.tickAt(30), KindReport); len(got) != 1 {
		t.Fatalf("check at 30 sent %d reports, want 1", len(got))
	}

	// Adaptive: a per-subproblem cost of 5 and a batch of 8 stretch the
	// staleness threshold to 40.
	e = newEnv(t, 1, Config{ReportTimeout: 10, ReportBatch: 8, ReportFanout: 1, AdaptiveReports: true}, []NodeID{1})
	e.core.Stagger(0)
	e.core.OnExpanded(e.leaf(0), Outcome{}, 5)
	for _, at := range []float64{0, 10, 20, 30} {
		if got := only(e.tickAt(at), KindReport); len(got) != 0 {
			t.Fatalf("adaptive check at %g sent %d reports, want none before 40", at, len(got))
		}
	}
	if got := only(e.tickAt(40), KindReport); len(got) != 1 {
		t.Fatalf("adaptive check at 40 sent %d reports, want 1", len(got))
	}
}

// TestTickTablePush: the whole table goes to one drawn member every
// pushInterval, from the staggered start, and to nobody in between.
func TestTickTablePush(t *testing.T) {
	peers := []NodeID{4, 5, 6}
	e := newEnv(t, 2, Config{}, peers)
	draws := []int{2, 0, 1}
	e.core.d.Rand = func(n int) int {
		if n != len(peers) {
			t.Fatalf("push drew from %d, want the %d members", n, len(peers))
		}
		d := draws[0]
		draws = draws[1:]
		return d
	}
	e.core.d.RandFloat = func() float64 { return 0.5 }
	e.core.Stagger(100) // the push chain starts at 100 + 0.5·120
	if at := e.core.pushAt; at != 160 {
		t.Fatalf("first push at %g, want 160", at)
	}
	want := []NodeID{6, 4, 5}
	for i, at := range []float64{160, 280, 400} {
		if got := only(e.tickAt(at-1), KindTable); len(got) != 0 {
			t.Fatalf("Tick at %g, before push %d, sent %d tables", at-1, i, len(got))
		}
		got := only(e.tickAt(at), KindTable)
		if len(got) != 1 || got[0].to != want[i] {
			t.Fatalf("push %d at %g sent %v, want one table to %d", i, at, got, want[i])
		}
	}
}

// TestTickBootstrapRetry: a bootstrap is asked for again every RequestTimeout
// — from a drawn member, or the peer last asked while the view is empty —
// until the table holds its first code; then the retries stop.
func TestTickBootstrapRetry(t *testing.T) {
	var view []NodeID
	e := newEnv(t, 2, Config{RequestTimeout: 3}, nil)
	e.core.d.Peers = func() []NodeID { return view }
	e.core.d.Rand = func(n int) int { return n - 1 }
	e.core.Bootstrap(7)
	if got := only(e.snd.take(), KindSubtreeRequest); len(got) != 1 || got[0].to != 7 {
		t.Fatalf("Bootstrap sent %v, want one subtree request to 7", got)
	}
	if got := e.core.WakeAt(); got != 3 {
		t.Fatalf("WakeAt after Bootstrap = %g, want 3", got)
	}
	if got := only(e.tickAt(2.9), KindSubtreeRequest); len(got) != 0 {
		t.Fatalf("Tick before the retry sent %v", got)
	}
	if got := only(e.tickAt(3), KindSubtreeRequest); len(got) != 1 || got[0].to != 7 {
		t.Fatalf("retry with an empty view sent %v, want one request to 7 again", got)
	}
	view = []NodeID{1, 2}
	if got := only(e.tickAt(6), KindSubtreeRequest); len(got) != 1 || got[0].to != 2 {
		t.Fatalf("retry with a view sent %v, want one request to the drawn member 2", got)
	}
	// The first code lands: the next retry check finds a table and stops.
	e.clk.t = 7
	e.core.HandleMessage(2, SubtreeReply{Prefix: code.Root(), Leaf: true, Rel: []code.Code{code.Root().Child(1, 0)}})
	if got := only(e.tickAt(9), KindSubtreeRequest); len(got) != 0 {
		t.Fatalf("retry after the first code sent %v, want nothing", got)
	}
	if got := e.core.WakeAt(); !math.IsInf(got, 1) {
		t.Fatalf("WakeAt after the retries stopped = %g, want +Inf", got)
	}
}

// TestTickWakeAtIsMinimum: WakeAt is the earliest of the request's deadline
// (or the pace's end), the report check, the table push and the bootstrap
// retry — each one in turn being the earliest.
func TestTickWakeAtIsMinimum(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		name                          string
		req, pace, report, push, boot float64
		want                          float64
	}{
		{"request", 5, 0, 8, 9, 10, 5},
		{"pace", 0, 6, 8, 9, 10, 6},
		{"report", 5, 0, 4, 9, 10, 4},
		{"push", 0, 6, 8, 3, 10, 3},
		{"bootstrap retry", 5, 0, 8, 9, 2, 2},
		{"nothing started", 0, 0, inf, inf, inf, inf},
	} {
		e := newEnv(t, 2, Config{}, []NodeID{1})
		e.core.reqPending, e.core.reqDeadline = c.req > 0, c.req
		e.core.paceUntil = c.pace
		e.core.reportAt, e.core.pushAt, e.core.bootAt = c.report, c.push, c.boot
		if got := e.core.WakeAt(); got != c.want {
			t.Errorf("%s earliest: WakeAt = %g, want %g", c.name, got, c.want)
		}
	}
}

// TestTickTerminatedCore: a terminated core wants no call and sends nothing
// when called anyway, however overdue its chains are.
func TestTickTerminatedCore(t *testing.T) {
	e := newEnv(t, 3, Config{ReportTimeout: 1}, []NodeID{1, 2})
	e.core.Stagger(0)
	e.core.Bootstrap(1)
	e.core.Seed(e.tree.Root())
	e.solve(t)
	e.snd.take()
	if got := e.core.WakeAt(); !math.IsInf(got, 1) {
		t.Fatalf("WakeAt of a terminated core = %g, want +Inf", got)
	}
	if got := e.tickAt(1000); len(got) != 0 {
		t.Fatalf("Tick of a terminated core sent %v", got)
	}
}
