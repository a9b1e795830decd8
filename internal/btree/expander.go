package btree

import (
	"gossipbnb/internal/code"
	"gossipbnb/internal/protocol"
)

// Expander is the protocol.Expander over a recorded basic tree — the replay
// stand-in for re-deriving a subproblem from the initial data (§5.3.1).
// Sharing one adapter guarantees the simulator and the live runtime
// translate codes and branching outcomes identically, which is the parity
// invariant between them. For expansion that actually re-derives solver
// state from the initial problem data, see internal/bnb's code-driven
// expander.
type Expander struct{ Tree *Tree }

var _ protocol.Expander = Expander{}

// Locate implements protocol.Expander.
func (e Expander) Locate(c code.Code) (protocol.Item, bool) {
	idx, ok := e.Tree.Locate(c)
	if !ok {
		return protocol.Item{}, false
	}
	return protocol.Item{Code: c, Ref: idx, Bound: e.Tree.Nodes[idx].Bound}, true
}

// Root returns the seed item for the original problem.
func (e Expander) Root() protocol.Item {
	return protocol.Item{Code: code.Root(), Ref: 0, Bound: e.Tree.Nodes[0].Bound}
}

// Outcome translates the recorded node behind it into the core's branching
// outcome.
func (e Expander) Outcome(it protocol.Item) protocol.Outcome {
	tn := &e.Tree.Nodes[it.Ref]
	out := protocol.Outcome{Feasible: tn.Feasible, Value: tn.Bound}
	if tn.Leaf() {
		return out
	}
	zero, one := it.Code.Children(tn.BranchVar)
	out.Children = []protocol.Item{
		{Code: zero, Ref: tn.Children[0], Bound: e.Tree.Nodes[tn.Children[0]].Bound},
		{Code: one, Ref: tn.Children[1], Bound: e.Tree.Nodes[tn.Children[1]].Bound},
	}
	return out
}
