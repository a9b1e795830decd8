package protocol

import (
	"math"
	"testing"

	"gossipbnb/internal/code"
)

// --- a scripted environment ---------------------------------------------------

type fakeClock struct{ t float64 }

func (f *fakeClock) Now() float64 { return f.t }

type sent struct {
	to NodeID
	m  Msg
}

type fakeSender struct{ out []sent }

func (s *fakeSender) Send(to NodeID, m Msg) { s.out = append(s.out, sent{to, m}) }

func (s *fakeSender) take() []sent {
	o := s.out
	s.out = nil
	return o
}

// fakeTree is a complete binary tree of the given depth: level d branches on
// variable d+1. Leaf value is 100 minus the number of 1-branches on the
// path, so the optimum is 100-depth (the all-ones leaf); interior bounds are
// the best value reachable below.
type fakeTree struct{ depth int }

func (f fakeTree) ones(c code.Code) int {
	n := 0
	for _, d := range c {
		n += int(d.Branch)
	}
	return n
}

func (f fakeTree) bound(c code.Code) float64 {
	return float64(100 - f.ones(c) - (f.depth - len(c)))
}

func (f fakeTree) Locate(c code.Code) (Item, bool) {
	if len(c) > f.depth {
		return Item{}, false
	}
	for i, d := range c {
		if d.Var != uint32(i+1) {
			return Item{}, false
		}
	}
	return Item{Code: c, Bound: f.bound(c)}, true
}

func (f fakeTree) Root() Item {
	it, _ := f.Locate(code.Root())
	return it
}

func (f fakeTree) Outcome(it Item) Outcome {
	if len(it.Code) == f.depth {
		return Outcome{Feasible: true, Value: float64(100 - f.ones(it.Code))}
	}
	v := uint32(len(it.Code) + 1)
	var ch []Item
	for b := uint8(0); b < 2; b++ {
		cc := it.Code.Child(v, b)
		ch = append(ch, Item{Code: cc, Bound: f.bound(cc)})
	}
	return Outcome{Children: ch}
}

type env struct {
	clk  fakeClock
	snd  fakeSender
	tree fakeTree
	core *Core
}

func newEnv(t *testing.T, depth int, cfg Config, peers []NodeID) *env {
	t.Helper()
	e := &env{tree: fakeTree{depth: depth}}
	e.core = New(0, cfg, Deps{
		Clock:    &e.clk,
		Sender:   &e.snd,
		Expander: e.tree,
		Peers:    func() []NodeID { return peers },
		Rand:     func(n int) int { return 0 },
	})
	return e
}

// solve drives the core to termination the way a driver would, failing the
// test if it starves or stalls.
func (e *env) solve(t *testing.T) {
	t.Helper()
	for steps := 0; steps < 1<<14; steps++ {
		it, st := e.core.Next()
		switch st {
		case Expand:
			e.clk.t += 0.01
			e.core.OnExpanded(it, e.tree.Outcome(it), 0.01)
		case Terminated:
			return
		case Idle:
			t.Fatal("core went idle without the driver observing termination")
		case Starved:
			t.Fatal("core starved while solving alone with the whole problem")
		}
	}
	t.Fatal("core did not terminate")
}

// --- tests --------------------------------------------------------------------

func TestCoreSolvesAlone(t *testing.T) {
	for _, rule := range []SelectRule{BestFirst, DepthFirst} {
		e := newEnv(t, 5, Config{Select: rule}, nil)
		root, _ := e.tree.Locate(code.Root())
		e.core.Seed(root)
		e.solve(t)
		if !e.core.Terminated() {
			t.Fatal("not terminated")
		}
		if got, want := e.core.Incumbent(), 95.0; got != want {
			t.Errorf("rule %v: incumbent = %g, want %g", rule, got, want)
		}
		// A depth-5 complete binary tree has 2^6-1 nodes.
		if got := e.core.Counters().Expanded; got != 63 {
			t.Errorf("rule %v: expanded = %d, want 63", rule, got)
		}
	}
}

func TestCorePruneEliminates(t *testing.T) {
	e := newEnv(t, 6, Config{Prune: true, Select: BestFirst}, nil)
	root, _ := e.tree.Locate(code.Root())
	e.core.Seed(root)
	e.solve(t)
	if got, want := e.core.Incumbent(), 94.0; got != want {
		t.Errorf("incumbent = %g, want %g", got, want)
	}
	if got := e.core.Counters().Expanded; got >= 127 {
		t.Errorf("pruning expanded all %d nodes", got)
	}
}

func TestCoreGrantAndDeny(t *testing.T) {
	e := newEnv(t, 4, Config{MinPoolToShare: 2}, []NodeID{1})
	// One item only: a request is denied.
	it, _ := e.tree.Locate(code.Root().Child(1, 0))
	e.core.Seed(it)
	e.core.HandleMessage(2, WorkRequest{Incumbent: 50})
	out := e.snd.take()
	if len(out) != 1 || out[0].to != 2 {
		t.Fatalf("deny not sent: %+v", out)
	}
	if _, ok := out[0].m.(WorkDeny); !ok {
		t.Fatalf("answer = %T, want WorkDeny", out[0].m)
	}
	// The piggybacked incumbent was merged.
	if e.core.Incumbent() != 50 {
		t.Errorf("incumbent = %g, want 50 (merged from request)", e.core.Incumbent())
	}
	// Grow the pool: now half is granted, smallest bounds first.
	for _, c := range []code.Code{
		code.Root().Child(1, 1),
		code.Root().Child(1, 0).Child(2, 0),
		code.Root().Child(1, 0).Child(2, 1),
	} {
		g, ok := e.tree.Locate(c)
		if !ok {
			t.Fatal("locate failed")
		}
		e.core.Seed(g)
	}
	e.core.HandleMessage(2, WorkRequest{})
	out = e.snd.take()
	if len(out) != 1 {
		t.Fatalf("want one grant, got %+v", out)
	}
	g, ok := out[0].m.(WorkGrant)
	if !ok {
		t.Fatalf("answer = %T, want WorkGrant", out[0].m)
	}
	if len(g.Codes) != 2 { // half of four
		t.Errorf("granted %d problems, want 2", len(g.Codes))
	}
	if e.core.Counters().WorkSent != 2 {
		t.Errorf("WorkSent = %d", e.core.Counters().WorkSent)
	}
}

func TestCoreRequestLifecycle(t *testing.T) {
	e := newEnv(t, 4, Config{RecoveryPatience: 3, RecoveryQuiet: 10}, []NodeID{1})
	if dec := e.core.Starve(); dec != StarveRequested {
		t.Fatalf("first starve = %v, want StarveRequested", dec)
	}
	if len(e.snd.take()) != 1 {
		t.Fatal("no request sent")
	}
	// A second starve while the request is outstanding sends nothing.
	if dec := e.core.Starve(); dec != StarveWait {
		t.Fatalf("starve with request pending = %v, want StarveWait", dec)
	}
	// A deny resolves it as a failure.
	eff := e.core.HandleMessage(1, WorkDeny{})
	if !eff.Answered || !eff.Failed {
		t.Fatalf("deny effect = %+v", eff)
	}
	// Next starve also pushes the table (starving processes gossip more),
	// on the request itself.
	e.clk.t = 1
	if dec := e.core.Starve(); dec != StarveRequested {
		t.Fatalf("starve after deny = %v", dec)
	}
	out := e.snd.take()
	if len(out) != 1 {
		t.Fatalf("want one request carrying the table push, got %d messages", len(out))
	}
	if req, ok := out[0].m.(WorkRequest); !ok || req.push != pushTable || req.table != e.core.table.Snapshot() {
		t.Errorf("message = %+v, want a WorkRequest carrying the table's snapshot", out[0].m)
	}
	// A grant with usable work resolves and resets the failure count.
	it, _ := e.tree.Locate(code.Root().Child(1, 0))
	eff = e.core.HandleMessage(1, WorkGrant{Codes: []code.Code{it.Code}})
	if !eff.Answered || eff.Failed {
		t.Fatalf("grant effect = %+v", eff)
	}
	if e.core.PoolLen() != 1 {
		t.Errorf("pool = %d after grant", e.core.PoolLen())
	}
}

// --- the idle discipline, on the fake clock ---------------------------------

// probes counts the work requests among what the core sent since the last
// take.
func (e *env) probes() int {
	n := 0
	for _, s := range e.snd.take() {
		if _, ok := s.m.(WorkRequest); ok {
			n++
		}
	}
	return n
}

// starveAt runs Starve at clock time at and returns its decision and the
// probes it sent.
func (e *env) starveAt(at float64) (StarveDecision, int) {
	e.clk.t = at
	dec := e.core.Starve()
	return dec, e.probes()
}

// TestIdleDenyPacesNextProbe: after a deny the next probe waits RetryDelay
// from the deny — and a paced Starve neither flushes the outbox nor draws a
// random number.
func TestIdleDenyPacesNextProbe(t *testing.T) {
	e := newEnv(t, 4, Config{RetryDelay: 1, RequestTimeout: 3}, []NodeID{1})
	draws := 0
	e.core.d.Rand = func(int) int { draws++; return 0 }
	if dec, p := e.starveAt(0); dec != StarveRequested || p != 1 {
		t.Fatalf("first starve = %v with %d probes, want one request", dec, p)
	}
	e.clk.t = 0.5
	e.core.HandleMessage(1, WorkDeny{})
	e.core.outbox.Insert(e.tree.Root().Code.Child(1, 0))
	before := draws
	if dec, p := e.starveAt(1.49); dec != StarveWait || p != 0 {
		t.Fatalf("starve inside the pace = %v with %d probes, want a wait", dec, p)
	}
	if draws != before || e.core.outbox.Len() == 0 {
		t.Errorf("a paced starve drew %d numbers and left %d codes in the outbox, want none drawn and the outbox kept", draws-before, e.core.outbox.Len())
	}
	if dec, p := e.starveAt(1.5); dec != StarveRequested || p != 1 {
		t.Fatalf("starve at the pace's end = %v with %d probes, want one request", dec, p)
	}
}

// TestIdleUnrelatedTrafficKeepsRequest: a message that does not answer the
// outstanding request changes nothing about it — no new probe until the
// answer, or until RequestTimeout and then the pace have passed.
func TestIdleUnrelatedTrafficKeepsRequest(t *testing.T) {
	e := newEnv(t, 4, Config{RetryDelay: 1, RequestTimeout: 3}, []NodeID{1, 2})
	e.starveAt(0)
	for _, at := range []float64{0.5, 1, 2.9} {
		e.clk.t = at
		e.core.HandleMessage(2, Report{Codes: []code.Code{code.Root().Child(1, 0)}})
		if dec, p := e.starveAt(at); dec != StarveWait || p != 0 {
			t.Fatalf("starve at %g after an unrelated report = %v with %d probes, want a wait", at, dec, p)
		}
	}
	if dec, p := e.starveAt(3.5); dec != StarveWait || p != 0 {
		t.Fatalf("starve after the timeout = %v with %d probes, want the pace", dec, p)
	}
	if dec, p := e.starveAt(4); dec != StarveRequested || p != 1 {
		t.Fatalf("starve after timeout and pace = %v with %d probes, want one request", dec, p)
	}
	// A grant answers at once: no timeout, no pace.
	e.clk.t = 4.2
	it, _ := e.tree.Locate(code.Root().Child(1, 1))
	e.core.HandleMessage(1, WorkGrant{Codes: []code.Code{it.Code}})
	if got := e.core.WakeAt(); !math.IsInf(got, 1) {
		t.Errorf("WakeAt after a useful grant = %g, want +Inf", got)
	}
}

// TestIdleTimeoutThenLateDeny: a request that timed out counts as one failed
// attempt, at its deadline; the deny that straggles in later is unsolicited
// and counts for nothing, and the pace runs from the deadline, not from the
// straggler.
func TestIdleTimeoutThenLateDeny(t *testing.T) {
	e := newEnv(t, 4, Config{RetryDelay: 1, RequestTimeout: 3}, []NodeID{1})
	e.starveAt(0)
	e.clk.t = 3.5
	if eff := e.core.HandleMessage(1, WorkDeny{}); eff.Answered || eff.Failed {
		t.Errorf("late deny effect = %+v, want unsolicited", eff)
	}
	if e.core.failedReqs != 1 {
		t.Errorf("failedReqs = %d after a timeout and its late deny, want 1", e.core.failedReqs)
	}
	if got := e.core.WakeAt(); got != 4 {
		t.Errorf("WakeAt = %g, want the deadline 3 plus RetryDelay", got)
	}
	if dec, p := e.starveAt(3.99); dec != StarveWait || p != 0 {
		t.Fatalf("starve inside the pace = %v with %d probes, want a wait", dec, p)
	}
	if dec, p := e.starveAt(4); dec != StarveRequested || p != 1 {
		t.Fatalf("starve at the deadline's pace end = %v with %d probes, want one request", dec, p)
	}
}

// TestIdleWakeAt: the core wants to be called at the request's deadline,
// then at the end of the pace that the timeout started — still due once it
// ran out, so that a driver asking late wakes at once — and, after the Tick
// that ends the pace, not at all.
func TestIdleWakeAt(t *testing.T) {
	e := newEnv(t, 4, Config{RetryDelay: 1, RequestTimeout: 3}, []NodeID{1})
	if got := e.core.WakeAt(); !math.IsInf(got, 1) {
		t.Fatalf("WakeAt of a fresh core = %g, want +Inf", got)
	}
	e.clk.t = 2
	e.core.Starve()
	for _, c := range []struct{ now, want float64 }{
		{2, 5}, {4.9, 5}, // the request is outstanding until its deadline
		{5, 6}, {5.5, 6}, // then it failed, and the pace runs
		{6, 6}, {6.5, 6}, // the pace ran out, and is due until a Tick ends it
	} {
		e.clk.t = c.now
		if got := e.core.WakeAt(); got != c.want {
			t.Errorf("WakeAt at %g = %g, want %g", c.now, got, c.want)
		}
	}
	if e.core.Tick(); !math.IsInf(e.core.WakeAt(), 1) {
		t.Errorf("WakeAt after the Tick that ended the pace = %g, want +Inf", e.core.WakeAt())
	}
}

// TestIdlePatienceAfterDenies: RecoveryPatience denies, and not one fewer,
// let a starving process past its quiet window recover.
func TestIdlePatienceAfterDenies(t *testing.T) {
	const patience = 3
	e := newEnv(t, 4, Config{RetryDelay: 1, RecoveryPatience: patience, RecoveryQuiet: 0.5}, []NodeID{1})
	for i := 0; i < patience; i++ {
		// The quiet window has long passed from the second probe on; only
		// patience holds recovery back.
		if dec, p := e.starveAt(float64(i)); dec != StarveRequested || p != 1 {
			t.Fatalf("starve after %d denies = %v with %d probes, want one request", i, dec, p)
		}
		e.core.HandleMessage(1, WorkDeny{ActAge: 100}) // no fresh remote activity
	}
	if dec, _ := e.starveAt(patience - 0.5); dec != StarveWait {
		t.Fatalf("starve inside the last pace = %v, want a wait", dec)
	}
	if dec, _ := e.starveAt(patience); dec != StarveRecover {
		t.Fatalf("starve after %d denies = %v, want StarveRecover", patience, dec)
	}
}

// TestIdleRequestFailed pins the hooks of a driver that keeps its own
// request timer and pace: a probe leaves a request pending; RequestFailed
// settles it as one failed attempt with no retry pace, so WakeAt carries
// none and the next Starve probes at once; with nothing pending it does
// nothing; and RecoveryPatience such failures, and not one fewer, let a
// process past its quiet window recover.
func TestIdleRequestFailed(t *testing.T) {
	const patience = 3
	e := newEnv(t, 4, Config{RetryDelay: 1, RequestTimeout: 100, RecoveryPatience: patience, RecoveryQuiet: 0.5}, []NodeID{1})
	if e.core.RequestFailed(); e.core.RequestPending() || e.core.failedReqs != 0 {
		t.Fatalf("RequestFailed with nothing pending: pending %v, %d failures; want a no-op", e.core.RequestPending(), e.core.failedReqs)
	}
	for i := 0; i < patience; i++ {
		// From the second probe on the quiet window has passed; only the
		// failure count holds recovery back.
		if dec, p := e.starveAt(float64(i)); dec != StarveRequested || p != 1 {
			t.Fatalf("starve after %d failures = %v with %d probes, want one request", i, dec, p)
		}
		if !e.core.RequestPending() {
			t.Fatalf("no request pending after probe %d", i)
		}
		e.clk.t += 0.5
		e.core.RequestFailed()
		e.core.RequestFailed() // nothing pending any more: no second failure
		if e.core.RequestPending() || e.core.failedReqs != i+1 {
			t.Fatalf("after RequestFailed on probe %d: pending %v, %d failures; want settled as one", i, e.core.RequestPending(), e.core.failedReqs)
		}
		if got := e.core.WakeAt(); !math.IsInf(got, 1) {
			t.Fatalf("WakeAt after RequestFailed = %g, want +Inf: no pace", got)
		}
	}
	if dec, _ := e.starveAt(patience - 0.5); dec != StarveRecover {
		t.Fatalf("starve after %d failures past the quiet window = %v, want StarveRecover", patience, dec)
	}
}

func TestCoreRecoveryAfterQuietWindow(t *testing.T) {
	e := newEnv(t, 4, Config{RecoveryPatience: 3, RecoveryQuiet: 10, RequestTimeout: 0.5, RetryDelay: 0.5}, []NodeID{1})
	// Three unanswered probes, one a second: each times out after half a
	// second and paces the next one half a second more.
	for i := 0; i < 3; i++ {
		if dec := e.core.Starve(); dec != StarveRequested {
			t.Fatalf("probe %d: %v", i, dec)
		}
		e.clk.t += 1
	}
	e.snd.take()
	// Patience exhausted but the quiet window (10s) has not passed: probing
	// continues.
	if dec := e.core.Starve(); dec != StarveRequested {
		t.Fatalf("inside quiet window: %v, want StarveRequested", dec)
	}
	e.snd.take()
	// After the quiet window with no remote progress: recover.
	e.clk.t = 30
	if dec := e.core.Starve(); dec != StarveRecover {
		t.Fatalf("after quiet window: %v, want StarveRecover", dec)
	}
	plan := e.core.PlanRecovery()
	if len(plan) == 0 {
		t.Fatal("empty recovery plan on an incomplete table")
	}
	if got := e.core.Adopt(plan); got == 0 {
		t.Fatal("recovery adopted nothing")
	}
	if e.core.Counters().Recoveries == 0 {
		t.Error("Recoveries counter not incremented")
	}
	if _, st := e.core.Next(); st != Expand {
		t.Errorf("after recovery Next = %v, want Expand", st)
	}
}

// TestCorePlanRecoverySize pins the one recovery rule: with N regions
// outstanding a plan holds max(min(4, 1+N/4), N/8) of them, all of them from
// the complement, and RecoveryPlans counts the plans that held anything.
func TestCorePlanRecoverySize(t *testing.T) {
	const depth = 8 // 256 leaves
	var leaves []code.Code
	for i := 0; i < 1<<depth; i++ {
		c := code.Root()
		for d := 0; d < depth; d++ {
			c = c.Child(uint32(d+1), uint8(i>>(depth-1-d))&1)
		}
		leaves = append(leaves, c)
	}
	for _, tc := range []struct{ n, want int }{
		{1, 1}, {3, 1}, {4, 2}, {11, 3}, {12, 4}, {39, 4}, {40, 5}, {128, 16},
	} {
		e := newEnv(t, depth, Config{}, []NodeID{1})
		state := uint64(tc.n)
		e.core.d.Rand = func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int((state >> 33) % uint64(n))
		}
		// Complete every leaf but each second one of the first 2·n: n regions.
		for i, c := range leaves {
			if i >= 2*tc.n || i%2 == 0 {
				e.core.Table().Insert(c)
			}
		}
		if got := e.core.Table().Gaps(); got != tc.n {
			t.Fatalf("built %d regions, want %d", got, tc.n)
		}
		plan := e.core.PlanRecovery()
		if len(plan) != tc.want {
			t.Errorf("N = %d: plan of %d regions, want %d", tc.n, len(plan), tc.want)
		}
		for _, c := range plan {
			if len(c) != depth || c[depth-1].Branch != 1 || e.core.Table().Contains(c) {
				t.Errorf("N = %d: planned %v, not an outstanding region", tc.n, c)
			}
		}
		if got := e.core.Counters().RecoveryPlans; got != 1 {
			t.Errorf("N = %d: RecoveryPlans = %d after one plan", tc.n, got)
		}
	}
	e := newEnv(t, depth, Config{}, []NodeID{1})
	e.core.Table().Insert(code.Root())
	if plan := e.core.PlanRecovery(); plan != nil {
		t.Errorf("plan on a complete table = %v", plan)
	}
	if got := e.core.Counters().RecoveryPlans; got != 0 {
		t.Errorf("RecoveryPlans = %d after an empty plan", got)
	}
}

func TestCoreRecoveryGatedByRemoteActivity(t *testing.T) {
	e := newEnv(t, 4, Config{RecoveryPatience: 1, RecoveryQuiet: 10}, []NodeID{1})
	e.core.Starve()
	e.clk.t = 30 // the probe timed out long ago
	// Evidence that some process computed 2 seconds ago arrives, on a deny
	// that answers nothing any more: the quiet gate must hold recovery back.
	e.core.HandleMessage(1, WorkDeny{ActAge: 2})
	if dec := e.core.Starve(); dec == StarveRecover {
		t.Fatal("recovered despite fresh remote activity evidence")
	}
}

func TestCoreTerminationBroadcastAndRelay(t *testing.T) {
	e := newEnv(t, 3, Config{}, []NodeID{1, 2})
	root, _ := e.tree.Locate(code.Root())
	e.core.Seed(root)
	for {
		it, st := e.core.Next()
		if st == Terminated {
			break
		}
		if st != Expand {
			t.Fatalf("unexpected status %v", st)
		}
		e.core.OnExpanded(it, e.tree.Outcome(it), 0.01)
	}
	// The final broadcast: one root report per peer.
	var roots int
	for _, s := range e.snd.take() {
		if r, ok := s.m.(Report); ok && len(r.Codes) == 1 && r.Codes[0].IsRoot() {
			roots++
		}
	}
	if roots != 2 {
		t.Fatalf("root reports broadcast = %d, want 2", roots)
	}
	// A terminated core answers work requests with the root report, so
	// stragglers can terminate too.
	e.core.HandleMessage(2, WorkRequest{})
	out := e.snd.take()
	if len(out) != 1 {
		t.Fatalf("terminated core sent %d messages", len(out))
	}
	r, ok := out[0].m.(Report)
	if !ok || len(r.Codes) != 1 || !r.Codes[0].IsRoot() {
		t.Fatalf("terminated answer = %+v, want root report", out[0].m)
	}
	// A fresh core receiving the root report terminates immediately.
	e2 := newEnv(t, 3, Config{}, nil)
	e2.core.HandleMessage(0, r)
	if _, st := e2.core.Next(); st != Terminated {
		t.Fatalf("straggler status = %v, want Terminated", st)
	}
}

func TestCoreReportBatchingAndPacing(t *testing.T) {
	e := newEnv(t, 3, Config{ReportBatch: 100, ReportTimeout: 30, AdaptiveReports: true}, []NodeID{1})
	root, _ := e.tree.Locate(code.Root())
	e.core.Seed(root)
	// Expand the root and one leaf path far enough to complete something.
	for i := 0; i < 4; i++ {
		it, st := e.core.Next()
		if st != Expand {
			break
		}
		e.clk.t += 10 // coarse granularity: 10s per subproblem
		e.core.OnExpanded(it, e.tree.Outcome(it), 10)
	}
	if e.core.outbox.Len() == 0 {
		t.Fatal("nothing completed; test scenario broken")
	}
	// Fixed timeout would flush at 30s, but the adaptive threshold is
	// ReportBatch × ewma ≈ 1000s: not overdue yet.
	if e.core.ReportOverdue() {
		t.Error("overdue before the adaptive threshold")
	}
	e.clk.t = 1200
	if !e.core.ReportOverdue() {
		t.Error("not overdue after the adaptive threshold")
	}
	e.core.FlushReport()
	if len(e.snd.take()) == 0 {
		t.Error("flush sent nothing")
	}
	if e.core.ReportOverdue() {
		t.Error("overdue right after a flush")
	}
}

// TestCoreGrantEliminatesDominated is the regression test for the grant-side
// pruning hole: stolen codes whose bound cannot beat the incumbent must be
// eliminated on arrival (completed, like OnExpanded does at generation), not
// parked in the pool where they delay termination detection.
func TestCoreGrantEliminatesDominated(t *testing.T) {
	e := newEnv(t, 4, Config{Prune: true}, []NodeID{1})
	// fakeTree bounds sit near 100; an incumbent of 10 dominates everything.
	e.core.HandleMessage(1, Report{Incumbent: 10})
	dominated := code.Root().Child(1, 0)
	eff := e.core.HandleMessage(1, WorkGrant{Codes: []code.Code{dominated}, Incumbent: 10})
	if e.core.PoolLen() != 0 {
		t.Fatalf("pool = %d, dominated grant was pooled instead of eliminated", e.core.PoolLen())
	}
	if !e.core.Table().Contains(dominated) {
		t.Fatal("dominated grant not completed into the table")
	}
	// Elimination is progress: the completions will gossip, so the grant must
	// not count as a failed attempt.
	if eff.Failed {
		t.Errorf("all-eliminated grant reported as failed: %+v", eff)
	}
}

// TestCoreAdoptEliminatesDominated is the matching regression test for the
// recovery path: complement codes dominated by the incumbent are fathomed at
// adoption instead of being re-created as pool work.
func TestCoreAdoptEliminatesDominated(t *testing.T) {
	e := newEnv(t, 4, Config{Prune: true}, []NodeID{1})
	e.core.HandleMessage(1, Report{Incumbent: 10})
	dominated := code.Root().Child(1, 1)
	if got := e.core.Adopt([]code.Code{dominated}); got != 0 {
		t.Fatalf("Adopt re-created %d dominated problems", got)
	}
	if e.core.PoolLen() != 0 {
		t.Fatalf("pool = %d after adopting a dominated code", e.core.PoolLen())
	}
	if !e.core.Table().Contains(dominated) {
		t.Fatal("dominated recovery code not completed into the table")
	}
	if e.core.Counters().Recoveries != 0 {
		t.Errorf("Recoveries = %d for an eliminated code", e.core.Counters().Recoveries)
	}
}

// TestCoreGrantPooledCodeGuard is the double-pool regression test: a delayed
// grant arriving after complement recovery already adopted the same region —
// or a duplicated grant under at-least-once delivery — must not push a code
// that is already sitting in the pool, or the whole subtree below it is
// expanded twice locally.
func TestCoreGrantPooledCodeGuard(t *testing.T) {
	e := newEnv(t, 4, Config{}, []NodeID{1})
	region := code.Root().Child(1, 0)

	// Recovery re-created the region (the granter looked dead)...
	if got := e.core.Adopt([]code.Code{region}); got != 1 {
		t.Fatalf("Adopt re-created %d problems, want 1", got)
	}
	// ...and then the delayed grant for the very same region arrives.
	e.core.HandleMessage(1, WorkGrant{Codes: []code.Code{region}})
	if e.core.PoolLen() != 1 {
		t.Fatalf("pool = %d after delayed grant for an adopted region, want 1", e.core.PoolLen())
	}
	// A duplicated copy of the grant changes nothing either.
	e.core.HandleMessage(1, WorkGrant{Codes: []code.Code{region}})
	if e.core.PoolLen() != 1 {
		t.Fatalf("pool = %d after duplicated grant, want 1", e.core.PoolLen())
	}
	// And the mirror race: a grant pooled the region first, then a recovery
	// planned before the grant arrived tries to adopt it.
	other := code.Root().Child(1, 1)
	e.core.HandleMessage(1, WorkGrant{Codes: []code.Code{other}})
	if got := e.core.Adopt([]code.Code{other}); got != 0 {
		t.Fatalf("Adopt re-created %d copies of a pooled code, want 0", got)
	}
	if e.core.PoolLen() != 2 {
		t.Fatalf("pool = %d, want 2 (one per region)", e.core.PoolLen())
	}
	// Expanding to exhaustion must visit the depth-4 tree's 31 nodes exactly
	// once: 2 region roots covering the whole tree, no double subtree.
	expanded := map[string]int{}
	for steps := 0; steps < 1<<10; steps++ {
		it, st := e.core.Next()
		if st != Expand {
			break
		}
		expanded[it.Code.Key()]++
		e.core.OnExpanded(it, e.tree.Outcome(it), 0.01)
	}
	for k, n := range expanded {
		if n > 1 {
			t.Fatalf("code %q expanded %d times", k, n)
		}
	}
	if len(expanded) != 30 { // all 31 nodes minus the never-pooled root
		t.Errorf("expanded %d distinct nodes, want 30", len(expanded))
	}
}

// TestCoreSingletonPoolDenies: with MinPoolToShare 1 and a single pooled
// problem, halving the pool yields k = 0 — the answer must be an honest
// WorkDeny, not an empty WorkGrant the requester counts as a failed attempt.
func TestCoreSingletonPoolDenies(t *testing.T) {
	e := newEnv(t, 4, Config{MinPoolToShare: 1}, []NodeID{1})
	it, _ := e.tree.Locate(code.Root().Child(1, 0))
	e.core.Seed(it)
	e.core.HandleMessage(2, WorkRequest{})
	out := e.snd.take()
	if len(out) != 1 {
		t.Fatalf("want one answer, got %d messages", len(out))
	}
	if g, bad := out[0].m.(WorkGrant); bad {
		t.Fatalf("singleton pool answered with a WorkGrant of %d codes, want WorkDeny", len(g.Codes))
	}
	if _, ok := out[0].m.(WorkDeny); !ok {
		t.Fatalf("answer = %T, want WorkDeny", out[0].m)
	}
	if e.core.PoolLen() != 1 {
		t.Errorf("pool = %d, the singleton must stay", e.core.PoolLen())
	}
	// With two pooled problems the same config grants one.
	it2, _ := e.tree.Locate(code.Root().Child(1, 1))
	e.core.Seed(it2)
	e.core.HandleMessage(2, WorkRequest{})
	out = e.snd.take()
	if g, ok := out[0].m.(WorkGrant); !ok || len(g.Codes) != 1 {
		t.Fatalf("answer = %+v, want a 1-code WorkGrant", out[0].m)
	}
}

// TestCoreUnsolicitedGrantNotFailed: an unsolicited (or stale, replayed)
// grant carrying nothing usable must not flag Effect.Failed — the driver
// would pace a retry for a request it never issued — while the same grant
// answering a live request still counts as a failed attempt.
func TestCoreUnsolicitedGrantNotFailed(t *testing.T) {
	e := newEnv(t, 4, Config{Prune: true}, []NodeID{1})
	e.core.HandleMessage(1, Report{Incumbent: 10}) // dominates every fakeTree bound
	useless := WorkGrant{Codes: nil, Incumbent: 10}

	// No request outstanding: not answered, not failed, no failure counted.
	eff := e.core.HandleMessage(1, useless)
	if eff.Answered || eff.Failed {
		t.Fatalf("unsolicited useless grant effect = %+v, want neither flag", eff)
	}
	if e.core.failedReqs != 0 {
		t.Fatalf("failedReqs = %d after unsolicited grant, want 0", e.core.failedReqs)
	}

	// The same grant resolving an outstanding request is a failed attempt.
	if dec := e.core.Starve(); dec != StarveRequested {
		t.Fatalf("starve = %v, want StarveRequested", dec)
	}
	e.snd.take()
	eff = e.core.HandleMessage(1, useless)
	if !eff.Answered || !eff.Failed {
		t.Fatalf("answered useless grant effect = %+v, want Answered+Failed", eff)
	}
	if e.core.failedReqs != 1 {
		t.Fatalf("failedReqs = %d after answered useless grant, want 1", e.core.failedReqs)
	}
}

func TestCoreActivityAgeDiffusion(t *testing.T) {
	e := newEnv(t, 3, Config{}, []NodeID{1})
	// With work in the pool the process is active: age 0.
	root, _ := e.tree.Locate(code.Root())
	e.core.Seed(root)
	e.clk.t = 5
	if got := e.core.ActivityAge(); got != 0 {
		t.Errorf("age with active pool = %g, want 0", got)
	}
	// Drain the pool; its own last computation anchors the age.
	it, _ := e.core.Next()
	e.core.OnExpanded(it, Outcome{Feasible: true, Value: 1}, 0.1)
	// The fake outcome made the root a leaf: table is complete now, so use
	// a fresh core to check relayed evidence instead.
	e2 := newEnv(t, 3, Config{}, nil)
	e2.clk.t = 20
	e2.core.HandleMessage(1, WorkDeny{ActAge: 3})
	if got := e2.core.ActivityAge(); got != 3 {
		t.Errorf("relayed age = %g, want 3", got)
	}
	e2.clk.t = 25
	if got := e2.core.ActivityAge(); got != 8 {
		t.Errorf("relayed age after 5s = %g, want 8", got)
	}
}
