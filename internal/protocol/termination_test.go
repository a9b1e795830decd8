package protocol

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gossipbnb/internal/code"
	"gossipbnb/internal/ctree"
)

// --- cores on a loopback sender ------------------------------------------------

// flight is one message handed to the loopback sender.
type flight struct {
	from, to NodeID
	m        Msg
}

// loopNet runs n cores of one problem against each other: every send is
// logged and queued, pump delivers the queue in FIFO order, and a core that
// was handed a message is driven until it has nothing left to do without
// further input (expanding costs a tick of the shared clock). A plain Sender,
// so the termination broadcast is the per-peer loop and shows up in the log
// message by message.
type loopNet struct {
	clk   fakeClock
	tree  fakeTree
	cores []*Core
	queue []flight
	log   []flight
	// drop, if set, loses a queued message at delivery time. dead cores
	// neither receive nor run; done ones returned Terminated from Next.
	drop func(f flight) bool
	dead []bool
	done []bool
}

type loopSender struct {
	net  *loopNet
	from NodeID
}

func (s loopSender) Send(to NodeID, m Msg) {
	f := flight{s.from, to, m}
	s.net.log = append(s.net.log, f)
	s.net.queue = append(s.net.queue, f)
}

// newLoopNet builds n cores of a depth-deep fake tree drawing from one
// stream seeded with seed. Unless cfg says otherwise a probe times out after
// one clock tick, so a starve round (one RetryDelay) settles every probe it
// sent.
func newLoopNet(n, depth int, seed int64, cfg Config) *loopNet {
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 1
	}
	l := &loopNet{tree: fakeTree{depth: depth}, dead: make([]bool, n), done: make([]bool, n)}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		peers := make([]NodeID, 0, n-1)
		for p := 0; p < n; p++ {
			if p != i {
				peers = append(peers, NodeID(p))
			}
		}
		l.cores = append(l.cores, New(NodeID(i), cfg, Deps{
			Clock:     &l.clk,
			Sender:    loopSender{l, NodeID(i)},
			Expander:  l.tree,
			Peers:     func() []NodeID { return peers },
			Rand:      r.Intn,
			RandFloat: r.Float64,
		}))
	}
	return l
}

// run drives core i until it terminates, starves or idles.
func (l *loopNet) run(i int) {
	for !l.dead[i] {
		it, st := l.cores[i].Next()
		switch st {
		case Expand:
			l.clk.t += 0.001
			l.cores[i].OnExpanded(it, l.tree.Outcome(it), 0.001)
		case Terminated:
			l.done[i] = true
			return
		default:
			return
		}
	}
}

// pump delivers until nothing is in flight.
func (l *loopNet) pump() {
	for len(l.queue) > 0 {
		f := l.queue[0]
		l.queue = l.queue[1:]
		if l.dead[f.to] || (l.drop != nil && l.drop(f)) {
			continue
		}
		l.cores[f.to].HandleMessage(f.from, f.m)
		l.run(int(f.to))
	}
}

// solveAt seeds core i with the whole problem and lets it solve alone.
func (l *loopNet) solveAt(i int) {
	l.cores[i].Seed(l.tree.Root())
	l.run(i)
}

// starveRound is one RetryDelay of every core that is still waiting: run the
// starvation decision (recovering if the core says so), deliver what that
// caused, and advance the clock one RetryDelay — to the deadline of every
// probe still unanswered.
func (l *loopNet) starveRound() {
	for i, c := range l.cores {
		if l.dead[i] || l.done[i] {
			continue
		}
		if c.Starve() == StarveRecover {
			c.Adopt(c.PlanRecovery())
			l.run(i)
		}
	}
	l.pump()
	l.clk.t++
}

func (l *loopNet) allDone() bool {
	for i := range l.cores {
		if !l.dead[i] && !l.done[i] {
			return false
		}
	}
	return true
}

func isRootReport(m Msg) bool {
	r, ok := m.(Report)
	return ok && r.Len() == 1 && r.Frontier()[0].IsRoot()
}

// rootsFrom counts the root reports core i sent, and to how many distinct
// peers, among log[since:].
func (l *loopNet) rootsFrom(i, since int) (sent, peers int) {
	seen := map[NodeID]bool{}
	for _, f := range l.log[since:] {
		if int(f.from) == i && isRootReport(f.m) {
			sent++
			seen[f.to] = true
		}
	}
	return sent, len(seen)
}

// bothModes runs a scenario under frontier reports and under diff gossip.
func bothModes(t *testing.T, f func(t *testing.T, cfg Config)) {
	for _, cfg := range []Config{{}, {DiffGossip: true}} {
		t.Run(fmt.Sprintf("diff=%v", cfg.DiffGossip), func(t *testing.T) { f(t, cfg) })
	}
}

// halves are the two depth-1 codes of the fake tree: either one is partial
// information, both together contract to the root.
func halves() (code.Code, code.Code) {
	return code.Root().Child(1, 0), code.Root().Child(1, 1)
}

// --- tests ---------------------------------------------------------------------

// TestTerminationDetectorBroadcastsLearnersForward: the core that contracts to
// the root by itself broadcasts the root report once, to every peer; each core
// it tells forwards the report to exactly ReportFanout members and then says
// nothing more, except to answer a work request with the root report.
func TestTerminationDetectorBroadcastsLearnersForward(t *testing.T) {
	bothModes(t, func(t *testing.T, cfg Config) {
		const n = 12
		l := newLoopNet(n, 5, n, cfg)
		fanout := cfg.withDefaults().ReportFanout
		l.solveAt(0)
		l.pump()
		if !l.allDone() {
			t.Fatal("not every core terminated")
		}
		if sent, peers := l.rootsFrom(0, 0); sent != n-1 || peers != n-1 {
			t.Errorf("detector sent %d root reports to %d peers, want one to each of %d", sent, peers, n-1)
		}
		for i := 1; i < n; i++ {
			if sent, _ := l.rootsFrom(i, 0); sent != fanout {
				t.Errorf("learner %d sent %d root reports, want ReportFanout = %d", i, sent, fanout)
			}
			if got := l.cores[i].Incumbent(); got != l.cores[0].Incumbent() {
				t.Errorf("learner %d incumbent = %g, want the detector's %g", i, got, l.cores[0].Incumbent())
			}
		}

		// Everything but a work request falls on deaf ears afterwards.
		mark := len(l.log)
		a, b := halves()
		root := []code.Code{code.Root()}
		for i := range l.cores {
			for _, m := range []Msg{
				Report{Codes: root}, Report{Codes: []code.Code{a}}, TableMsg{Codes: []code.Code{a, b}},
				DigestReport{Digest: 1, Codes: root}, WorkGrant{Codes: []code.Code{a}}, WorkDeny{}, Ping{},
			} {
				l.cores[i].HandleMessage(NodeID((i+1)%n), m)
			}
			l.run(i)
		}
		if len(l.log) != mark {
			t.Errorf("terminated cores sent %d messages unprompted: %+v", len(l.log)-mark, l.log[mark:])
		}
		for i := range l.cores {
			from := NodeID((i + 1) % n)
			l.cores[i].HandleMessage(from, WorkRequest{})
			if len(l.log) != mark+1 || l.log[mark].to != from || !isRootReport(l.log[mark].m) {
				t.Fatalf("core %d answered a work request with %+v, want one root report to %d", i, l.log[mark:], from)
			}
			mark++
		}
	})
}

// TestDetectingEliminationsSendNoWorkReports: the work reports Next's
// eliminations flush go out when Next returns, unless the eliminations
// detected termination — the root report then subsumes them, and a peer that
// handled one behind it would only detect later.
func TestDetectingEliminationsSendNoWorkReports(t *testing.T) {
	bothModes(t, func(t *testing.T, cfg Config) {
		// Depth first, the pool pops a, then b.
		cfg.Prune, cfg.ReportBatch, cfg.Select = true, 1, DepthFirst
		for _, detect := range []bool{true, false} {
			e := newEnv(t, 4, cfg, []NodeID{1, 2})
			a, b := halves()
			if detect {
				e.core.Seed(Item{Code: b, Bound: 100})
			} else {
				e.core.Seed(Item{Code: b, Bound: 0})
			}
			e.core.Seed(Item{Code: a, Bound: 100})
			e.core.HandleMessage(1, Ping{Incumbent: 50})
			_, st := e.core.Next()
			var work, roots int
			for _, s := range e.snd.take() {
				if isRootReport(s.m) {
					roots++
				} else {
					work++
				}
			}
			if detect && (st != Terminated || work != 0 || roots != 2) {
				t.Errorf("detecting: status %v, %d work reports and %d root reports sent, want Terminated, 0 and 2", st, work, roots)
			}
			if !detect && (st != Expand || work != cfg.withDefaults().ReportFanout || roots != 0) {
				t.Errorf("not detecting: status %v, %d work reports and %d root reports sent, want Expand, %d and 0",
					st, work, roots, cfg.withDefaults().ReportFanout)
			}
			if got := e.core.Counters().ReportsSent; got != work {
				t.Errorf("detect=%v: ReportsSent = %d, %d sent", detect, got, work)
			}
		}
	})
}

// TestTerminationSimultaneousDetectors: two cores that each hold the half the
// other lacks both contract to the root from partial information, so both
// detect and both broadcast — including a core whose table was already
// complete when a peer's root report overtook its own Next. Everyone else
// hears two broadcasts and still forwards once.
func TestTerminationSimultaneousDetectors(t *testing.T) {
	bothModes(t, func(t *testing.T, cfg Config) {
		const n = 10
		l := newLoopNet(n, 5, n, cfg)
		fanout := cfg.withDefaults().ReportFanout
		a, b := halves()
		for _, i := range []int{0, 1} {
			l.cores[i].HandleMessage(2, Report{Codes: []code.Code{a}})
			l.cores[i].HandleMessage(3, Report{Codes: []code.Code{b}})
		}
		// Core 1 hears core 0's broadcast before it looks at its own table.
		l.run(0)
		l.pump()
		if !l.allDone() {
			t.Fatal("not every core terminated")
		}
		for i := 0; i < n; i++ {
			sent, peers := l.rootsFrom(i, 0)
			if i < 2 && (sent != n-1 || peers != n-1) {
				t.Errorf("detector %d sent %d root reports to %d peers, want one to each of %d", i, sent, peers, n-1)
			}
			if i >= 2 && sent != fanout {
				t.Errorf("learner %d sent %d root reports, want ReportFanout = %d", i, sent, fanout)
			}
		}
	})
}

// TestTerminationLearnedFromTableOrSubtree: any message that carries the root
// code teaches termination — a table push or a subtree reply from a finished
// peer as much as its root report — and the core forwards; the same kinds
// carrying the last missing piece make it a detector, and it broadcasts. (A
// set of codes is merged as its contracted table, so a push of both halves is
// the root's: the table push carries the missing half alone.)
func TestTerminationLearnedFromTableOrSubtree(t *testing.T) {
	bothModes(t, func(t *testing.T, cfg Config) {
		const n = 8
		fanout := cfg.withDefaults().ReportFanout
		a, b := halves()
		root := []code.Code{code.Root()}
		for _, c := range []struct {
			name string
			last Msg // delivered to a core that already knows half a
			want int
		}{
			{"root report", Report{Codes: root}, fanout},
			{"root table", TableMsg{Codes: root}, fanout},
			{"root digest report", DigestReport{Digest: 1, Codes: root}, fanout},
			{"root subtree reply", SubtreeReply{Prefix: code.Root(), Leaf: true, table: ctree.Done()}, fanout},
			{"missing half by report", Report{Codes: []code.Code{b}}, n - 1},
			{"missing half by table", TableMsg{Codes: []code.Code{b}}, n - 1},
			{"missing half by digest report", DigestReport{Digest: 1, Codes: []code.Code{b}}, n - 1},
			{"missing half by subtree reply", SubtreeReply{Prefix: b, Leaf: true, table: ctree.Done()}, n - 1},
		} {
			l := newLoopNet(n, 5, n, cfg)
			l.cores[0].HandleMessage(1, Report{Codes: []code.Code{a}})
			l.cores[0].HandleMessage(1, c.last)
			l.run(0)
			if !l.done[0] {
				t.Fatalf("%s: core did not terminate", c.name)
			}
			if sent, peers := l.rootsFrom(0, 0); sent != c.want || (c.want == n-1 && peers != n-1) {
				t.Errorf("%s: %d root reports to %d peers, want %d", c.name, sent, peers, c.want)
			}
		}
	})
}

// TestTerminationSurvivesLostBroadcast: all but one copy of the detector's
// broadcast is lost. The one learner's forwards start the epidemic and every
// core it misses is starving, so its probe reaches a finished core with the
// informed share of the cluster as probability and pulls the root report —
// the informed share at least doubles per round until it saturates, so
// 2·log₂ n rounds is a generous bound. Nobody has to recover anything.
func TestTerminationSurvivesLostBroadcast(t *testing.T) {
	bothModes(t, func(t *testing.T, cfg Config) {
		const n, maxRounds = 32, 10
		cfg.RecoveryQuiet = 1e6
		l := newLoopNet(n, 5, n, cfg)
		l.drop = oneBroadcastCopy()
		l.solveAt(0)
		l.pump()
		rounds := 0
		for ; !l.allDone() && rounds < maxRounds; rounds++ {
			l.starveRound()
		}
		if !l.allDone() {
			t.Fatalf("%d starve rounds after a broadcast cut to one copy, cores still waiting: %v", rounds, l.done)
		}
		t.Logf("every core terminated after %d starve rounds", rounds)
		for i, c := range l.cores {
			if c.Counters().Recoveries != 0 {
				t.Errorf("core %d recovered work although the answer was one probe away", i)
			}
			if got := c.Incumbent(); got != l.cores[0].Incumbent() {
				t.Errorf("core %d incumbent = %g, want %g", i, got, l.cores[0].Incumbent())
			}
		}
		// One broadcast, one forward per learner, one answer per probe at most.
		roots, probes := 0, 0
		for _, f := range l.log {
			if isRootReport(f.m) {
				roots++
			} else if _, ok := f.m.(WorkRequest); ok {
				probes++
			}
		}
		if bound := (1+cfg.withDefaults().ReportFanout)*(n-1) + probes; roots > bound {
			t.Errorf("%d root reports sent, want at most %d", roots, bound)
		}
	})
}

// oneBroadcastCopy is a drop rule that loses every root report core 0 sends
// but the first.
func oneBroadcastCopy() func(f flight) bool {
	kept := false
	return func(f flight) bool {
		if f.from != 0 || !isRootReport(f.m) {
			return false
		}
		if !kept {
			kept = true
			return false
		}
		return true
	}
}

// TestTerminationRelayOnlyCoverage: with the detector's broadcast cut to a
// single copy, the news travels only by the learners' forwards — each core
// told pushes the root report to ReportFanout = 2 members once — and reaches
// the share s of a large system that solves s = 1 − e^(−2s), about 0.797.
// The rest are left to their next probe (TestTerminationSurvivesLostBroadcast).
// Over 20 seeds at 1 024 cores the median sits on the fixed point and the
// spread is a few hundredths either way.
func TestTerminationRelayOnlyCoverage(t *testing.T) {
	const n, seeds = 1024, 20
	var shares []float64
	for seed := int64(1); seed <= seeds; seed++ {
		l := newLoopNet(n, 5, seed, Config{})
		l.drop = oneBroadcastCopy()
		l.solveAt(0)
		l.pump()
		told := 0
		for _, d := range l.done {
			if d {
				told++
			}
		}
		shares = append(shares, float64(told)/n)
	}
	slices.Sort(shares)
	median := (shares[seeds/2-1] + shares[seeds/2]) / 2
	t.Logf("relay-only coverage over %d seeds: median %.3f [%.3f, %.3f]", seeds, median, shares[0], shares[seeds-1])
	if median < 0.78 || median > 0.815 || shares[0] < 0.72 || shares[seeds-1] > 0.88 {
		t.Errorf("relay-only coverage at fan-out 2: median %.3f [%.3f, %.3f], want about 0.797", median, shares[0], shares[seeds-1])
	}
}

// TestTerminationRedetectedWhenInformedCoresDie: the detector and every core
// it told die before the news spreads. What they knew dies with them; the
// rest starve, presume the work lost, rebuild it from the complement of their
// tables, and the first to contract to the root is a detector in its own
// right: it broadcasts.
func TestTerminationRedetectedWhenInformedCoresDie(t *testing.T) {
	bothModes(t, func(t *testing.T, cfg Config) {
		const n, maxRounds = 8, 64
		cfg.RecoveryQuiet = 3
		l := newLoopNet(n, 5, n, cfg)
		kept := 0
		l.drop = func(f flight) bool {
			if !isRootReport(f.m) {
				return false
			}
			// Two copies of the broadcast arrive; their forwards are lost.
			kept++
			return f.from != 0 || kept > 2
		}
		l.solveAt(0)
		l.pump()
		informed := 0
		for i := range l.cores {
			if l.done[i] {
				l.dead[i] = true
				informed++
			}
		}
		if informed != 3 {
			t.Fatalf("%d cores informed before the crash, want the detector and two learners", informed)
		}
		l.drop = nil
		mark := len(l.log)
		rounds := 0
		for ; !l.allDone() && rounds < maxRounds; rounds++ {
			l.starveRound()
		}
		if !l.allDone() {
			t.Fatalf("survivors still waiting after %d rounds: %v", rounds, l.done)
		}
		detectors, recovered := 0, 0
		for i, c := range l.cores {
			if l.dead[i] {
				continue
			}
			if got := c.Incumbent(); got != l.cores[0].Incumbent() {
				t.Errorf("survivor %d incumbent = %g, want %g", i, got, l.cores[0].Incumbent())
			}
			if sent, peers := l.rootsFrom(i, mark); sent >= n-1 && peers == n-1 {
				detectors++
			}
			recovered += c.Counters().Recoveries
		}
		if detectors == 0 {
			t.Error("no survivor broadcast the root report")
		}
		if recovered == 0 {
			t.Error("survivors terminated without recovering the work that died uninformed")
		}
	})
}
