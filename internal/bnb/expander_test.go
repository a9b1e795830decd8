package bnb

import (
	"math"
	"math/rand"
	"testing"

	"gossipbnb/internal/code"
	"gossipbnb/internal/protocol"
)

// drive expands items through the expander the way a protocol driver would,
// best-first with pruning, and returns the best feasible value found.
func drive(t *testing.T, e *Expander) float64 {
	t.Helper()
	pool := []protocol.Item{e.Root()}
	best := math.Inf(1)
	for steps := 0; len(pool) > 0; steps++ {
		if steps > 1<<20 {
			t.Fatal("expander run did not finish")
		}
		it := pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		if it.Bound >= best {
			continue
		}
		out := e.Outcome(it)
		if out.Feasible && out.Value < best {
			best = out.Value
		}
		for _, ch := range out.Children {
			if ch.Bound < best {
				pool = append(pool, ch)
			}
		}
	}
	return best
}

// TestExpanderMatchesSequentialKnapsack drives a full solve through the
// code-driven expander and checks the optimum against the sequential engine
// over the same initial data — the §5.3.1 claim in miniature.
func TestExpanderMatchesSequentialKnapsack(t *testing.T) {
	k := RandomKnapsack(rand.New(rand.NewSource(3)), 14)
	want := SolveProblem(k).Value
	if got := drive(t, NewExpander(k)); got != want {
		t.Fatalf("expander optimum = %g, sequential = %g", got, want)
	}
}

func TestExpanderMatchesSequentialQAP(t *testing.T) {
	q := RandomQAP(rand.New(rand.NewSource(4)), 5)
	want := SolveProblem(q).Value
	if got := drive(t, NewExpander(q)); got != want {
		t.Fatalf("expander optimum = %g, sequential = %g", got, want)
	}
}

// TestExpanderColdLocate resolves a deep code on a fresh expander — the
// work-grant / failure-recovery path, where no ancestor state is cached and
// the whole decision path replays from the initial data.
func TestExpanderColdLocate(t *testing.T) {
	k := RandomKnapsack(rand.New(rand.NewSource(5)), 12)
	// Build a deep code by walking branch 1 (take) on a warm expander.
	warm := NewExpander(k)
	it := warm.Root()
	var deep protocol.Item
	for depth := 0; depth < 6; depth++ {
		out := warm.Outcome(it)
		if len(out.Children) == 0 {
			break
		}
		it = out.Children[1]
		deep = it
	}
	if deep.Code.Depth() == 0 {
		t.Fatal("could not build a deep code")
	}
	cold := NewExpander(k)
	got, ok := cold.Locate(deep.Code)
	if !ok {
		t.Fatalf("cold Locate(%v) failed", deep.Code)
	}
	if got.Bound != deep.Bound {
		t.Fatalf("cold bound %g != warm bound %g for %v", got.Bound, deep.Bound, deep.Code)
	}
	// And the re-derived state branches identically.
	w, c := warm.Outcome(deep), cold.Outcome(got)
	if w.Feasible != c.Feasible || w.Value != c.Value || len(w.Children) != len(c.Children) {
		t.Fatalf("warm/cold outcomes differ: %+v vs %+v", w, c)
	}
	for i := range w.Children {
		if !w.Children[i].Code.Equal(c.Children[i].Code) || w.Children[i].Bound != c.Children[i].Bound {
			t.Fatalf("child %d differs: %+v vs %+v", i, w.Children[i], c.Children[i])
		}
	}
}

// TestExpanderRejectsForeignCodes: a code whose decision variables disagree
// with the deterministic branching identifies no subproblem.
func TestExpanderRejectsForeignCodes(t *testing.T) {
	k := RandomKnapsack(rand.New(rand.NewSource(6)), 8)
	e := NewExpander(k)
	// Knapsack branches variable i+1 at depth i, so x99 at depth 0 is bogus.
	if _, ok := e.Locate(code.Root().Child(99, 0)); ok {
		t.Fatal("Locate accepted a code with a foreign branch variable")
	}
}

// recordedCodes returns the code of every node a sequential depth-first
// solve of p visits.
func recordedCodes(p Problem) []code.Code {
	var codes []code.Code
	Solve(p.Root(), Options{Pool: NewDepthFirst(), OnExpand: func(v Visit) { codes = append(codes, v.Code) }})
	return codes
}

// sameItem and sameOutcome compare what the protocol sees of an expansion:
// code, bound, feasibility, value, and the children's codes and bounds.
func sameItem(a, b protocol.Item) bool { return a.Code.Equal(b.Code) && a.Bound == b.Bound }

func sameOutcome(a, b protocol.Outcome) bool {
	if a.Feasible != b.Feasible || a.Value != b.Value || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !sameItem(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// TestOutcomeChildrenRideInScratch pins the protocol.Expander contract the
// warm path relies on: Children is the expander's scratch, which the next
// Outcome overwrites, while the items copied out of it — the codes and the
// paired states — are fresh per call and outlive it unchanged.
func TestOutcomeChildrenRideInScratch(t *testing.T) {
	for name, p := range warmProblems() {
		e := NewExpander(p)
		first := e.Outcome(e.Root())
		kept := append([]protocol.Item(nil), first.Children...)
		second := e.Outcome(kept[1])
		if len(second.Children) == 0 || &first.Children[0] != &second.Children[0] {
			t.Fatalf("%s: consecutive Outcomes returned distinct Children storage", name)
		}
		want := NewExpander(p).Outcome(e.Root())
		for i, it := range kept {
			if !sameItem(it, want.Children[i]) {
				t.Errorf("%s: child %d changed under the next Outcome: %+v, want %+v", name, i, it, want.Children[i])
			}
			bare := protocol.Item{Code: it.Code, Bound: it.Bound}
			if got, ref := e.Outcome(it), NewExpander(p).Outcome(bare); !sameOutcome(got, ref) {
				t.Errorf("%s: kept child %d branches to %+v, a cold replay to %+v", name, i, got, ref)
			}
		}
	}
}

// TestPropColdReplayMatchesRootReplay: whatever sequence of cold codes one
// expander has resolved before — unrelated subtrees, an ancestor of the
// previous code, the root, a code no honest process could send — each Locate
// equals a fresh expander replaying the code from the root, and so does the
// Outcome of the located item, with or without its state handle. The path
// stack is an optimization the protocol cannot observe.
func TestPropColdReplayMatchesRootReplay(t *testing.T) {
	problems := map[string]Problem{
		"qap":      RandomQAP(rand.New(rand.NewSource(21)), 6),
		"knapsack": RandomKnapsack(rand.New(rand.NewSource(22)), 16),
	}
	for name, p := range problems {
		codes := recordedCodes(p)
		if len(codes) < 50 {
			t.Fatalf("%s: only %d recorded codes", name, len(codes))
		}
		r := rand.New(rand.NewSource(23))
		e := NewExpander(p)
		prev := code.Root()
		for step := 0; step < 2000; step++ {
			c := codes[r.Intn(len(codes))]
			switch r.Intn(5) {
			case 0:
				c = prev[:r.Intn(len(prev)+1)] // an ancestor of the previous code, or itself
			case 1:
				c = code.Root()
			case 2:
				if len(c) == 0 {
					continue
				}
				bad := c.Clone()
				bad[r.Intn(len(bad))].Var += 1000
				if _, ok := e.Locate(bad); ok {
					t.Fatalf("%s step %d: Locate accepted tampered %v", name, step, bad)
				}
				if out := e.Outcome(protocol.Item{Code: bad}); out.Feasible || len(out.Children) > 0 {
					t.Fatalf("%s step %d: Outcome of tampered %v = %+v, want fathomed", name, step, bad, out)
				}
				continue
			}
			fresh := NewExpander(p)
			want, ok := fresh.Locate(c)
			if !ok {
				t.Fatalf("%s: fresh Locate(%v) failed on a recorded code", name, c)
			}
			got, ok := e.Locate(c)
			if !ok || !sameItem(got, want) {
				t.Fatalf("%s step %d: Locate(%v) = %+v, %v; root replay gives %+v", name, step, c, got, ok, want)
			}
			wantOut := fresh.Outcome(want)
			if out := e.Outcome(got); !sameOutcome(out, wantOut) {
				t.Fatalf("%s step %d: warm Outcome(%v) = %+v, root replay gives %+v", name, step, c, out, wantOut)
			}
			if out := e.Outcome(protocol.Item{Code: c, Bound: got.Bound}); !sameOutcome(out, wantOut) {
				t.Fatalf("%s step %d: stateless Outcome(%v) = %+v, root replay gives %+v", name, step, c, out, wantOut)
			}
			prev = c
		}
	}
}

// loopMsg is one message in flight between the cores of solveLoopback.
type loopMsg struct {
	from, to protocol.NodeID
	m        protocol.Msg
}

type loopSender struct {
	q    *[]loopMsg
	from protocol.NodeID
}

func (s loopSender) Send(to protocol.NodeID, m protocol.Msg) {
	*s.q = append(*s.q, loopMsg{s.from, to, m})
}

type loopClock struct{ t float64 }

func (c *loopClock) Now() float64 { return c.t }

// solveLoopback runs a pruned depth-first solve of p on n protocol cores in
// lock-step rounds — deliver everything in flight, then every core takes one
// turn — so work really moves by grants and is located cold at the receiver.
// It returns the expanders, the cores, and the deepest code expanded.
func solveLoopback(t *testing.T, p Problem, n int) ([]*Expander, []*protocol.Core, int) {
	t.Helper()
	var q []loopMsg
	clk := &loopClock{}
	r := rand.New(rand.NewSource(31))
	exps := make([]*Expander, n)
	cores := make([]*protocol.Core, n)
	for i := range cores {
		var peers []protocol.NodeID
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, protocol.NodeID(j))
			}
		}
		exps[i] = NewExpander(p)
		cores[i] = protocol.New(protocol.NodeID(i), protocol.Config{Select: protocol.DepthFirst, Prune: true}, protocol.Deps{
			Clock:    clk,
			Sender:   loopSender{&q, protocol.NodeID(i)},
			Expander: exps[i],
			Peers:    func() []protocol.NodeID { return peers },
			Rand:     r.Intn,
		})
	}
	cores[0].Seed(exps[0].Root())
	deepest := 0
	for round := 0; ; round++ {
		if round > 1<<20 {
			t.Fatal("loopback solve did not terminate")
		}
		clk.t++
		batch := q
		q = nil
		for _, m := range batch {
			cores[m.to].HandleMessage(m.from, m.m)
		}
		running := false
		for i, c := range cores {
			it, st := c.Next()
			switch st {
			case protocol.Expand:
				deepest = max(deepest, len(it.Code))
				c.OnExpanded(it, exps[i].Outcome(it), 1)
			case protocol.Starved:
				if c.Starve() == protocol.StarveRecover {
					c.Adopt(c.PlanRecovery())
				}
			}
			running = running || !c.Terminated()
		}
		if !running {
			return exps, cores, deepest
		}
	}
}

// TestExpanderRetainsOnlyOnePath: after a full pruned solve with work moving
// between processes, all an expander still holds is the path of its last
// cold replay — at most one tree depth of states. Everything else lived on
// pool items and went with them; the cache this replaced kept every pruned
// and granted-away child until a 32 768-entry reset.
func TestExpanderRetainsOnlyOnePath(t *testing.T) {
	problems := map[string]Problem{
		"qap":      RandomQAP(rand.New(rand.NewSource(41)), 7),
		"knapsack": RandomKnapsack(rand.New(rand.NewSource(42)), 22),
	}
	for name, p := range problems {
		want := SolveProblem(p).Value
		exps, cores, deepest := solveLoopback(t, p, 3)
		granted, expanded := 0, 0
		for i, c := range cores {
			if c.Incumbent() != want {
				t.Errorf("%s: core %d finished with %g, sequential optimum %g", name, i, c.Incumbent(), want)
			}
			granted += c.Counters().WorkSent
			expanded += c.Counters().Expanded
			// A located code is at most a child of the deepest expanded one.
			if len(exps[i].path) != len(exps[i].prev) || len(exps[i].path) > deepest+1 {
				t.Errorf("%s: expander %d retains %d states for a %d-decision path; deepest expansion %d",
					name, i, len(exps[i].path), len(exps[i].prev), deepest)
			}
		}
		if granted == 0 {
			t.Errorf("%s: no work was granted, so no code was located cold", name)
		}
		t.Logf("%s: %d expansions, %d granted codes, deepest %d, retained %d/%d/%d states",
			name, expanded, granted, deepest, len(exps[0].path), len(exps[1].path), len(exps[2].path))
	}
}

func TestParseSpec(t *testing.T) {
	if _, err := ParseSpec("knapsack:10:1"); err != nil {
		t.Errorf("knapsack spec rejected: %v", err)
	}
	if _, err := ParseSpec("qap:4:1"); err != nil {
		t.Errorf("qap spec rejected: %v", err)
	}
	for _, bad := range []string{"", "knapsack", "knapsack:0:1", "tsp:5:1", "qap:40:1", "qap:x:1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}
