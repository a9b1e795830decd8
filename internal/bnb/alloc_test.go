package bnb

// Allocation guards for the warm expansion path. The solver state rides on
// the pool item, so expanding it costs two allocations: Branch's one object
// holding both child states, and the one array holding both child codes. The
// children ride out in the expander's scratch. Before the state handle the
// same call built four code.Key strings and inserted into a map: 26
// allocations on QAP.

import (
	"math/rand"
	"testing"

	"gossipbnb/internal/protocol"
)

// warmProblems are the two real problem kinds, sized so that eight
// consecutive branch-1 decisions from the root are all interior nodes.
func warmProblems() map[string]Problem {
	return map[string]Problem{
		"qap":      RandomQAP(rand.New(rand.NewSource(11)), 10),
		"knapsack": RandomKnapsack(rand.New(rand.NewSource(12)), 40),
	}
}

const warmDepth = 8

// outcomeAllocs is what one warm Outcome allocates: one object for both
// child states, one array for both child codes.
const outcomeAllocs = 2

func TestWarmOutcomeAllocs(t *testing.T) {
	for name, p := range warmProblems() {
		root := p.Root()
		if got := testing.AllocsPerRun(100, func() { root.Branch() }); got != 1 {
			t.Errorf("%s: Branch allocates %.0f, want 1 (both child states in one object)", name, got)
		}
		e := NewExpander(p)
		it := e.Root()
		for d := 0; d < warmDepth/2; d++ {
			it = e.Outcome(it).Children[1]
		}
		if got := testing.AllocsPerRun(100, func() { e.Outcome(it) }); got > outcomeAllocs {
			t.Errorf("%s: warm Outcome allocates %.0f, want ≤ %d (child states + child codes)", name, got, outcomeAllocs)
		}
	}
}

type nullSender struct{}

func (nullSender) Send(protocol.NodeID, protocol.Msg) {}

// TestExpandCycleAllocs pins the whole per-node cycle a driver runs — the
// core pops the item, the expander branches the state it carries, the core
// pools the children — at the expander's own number: the core adds nothing,
// and nothing resolves a code.
func TestExpandCycleAllocs(t *testing.T) {
	for name, p := range warmProblems() {
		e := NewExpander(p)
		core := protocol.New(0, protocol.Config{Select: protocol.DepthFirst, Prune: true}, protocol.Deps{
			Clock:    &loopClock{},
			Sender:   nullSender{},
			Expander: e,
			Peers:    func() []protocol.NodeID { return nil },
			Rand:     func(int) int { return 0 },
		})
		// One run walks warmDepth interior nodes down from a freshly seeded
		// root (depth-first pops the newest child, branch 1). No incumbent
		// exists yet, so nothing is pruned and nothing completes; the
		// children left behind only grow the pool slice, which amortizes
		// below one allocation per run.
		descend := func() {
			core.Seed(e.Root())
			for d := 0; d < warmDepth; d++ {
				it, st := core.Next()
				if st != protocol.Expand {
					t.Fatalf("%s: Next = %v at depth %d, want Expand", name, st, d)
				}
				core.OnExpanded(it, e.Outcome(it), 0)
			}
		}
		descend() // size the pool slice
		budget := float64(warmDepth * outcomeAllocs)
		if got := testing.AllocsPerRun(50, descend); got > budget {
			t.Errorf("%s: %d Next→Outcome→OnExpanded cycles allocate %.0f, want ≤ %.0f", name, warmDepth, got, budget)
		}
	}
}
