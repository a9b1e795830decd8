package bnb

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"gossipbnb/internal/code"
	"gossipbnb/internal/protocol"
)

// Problem is the initial problem data of a code-driven workload: anything
// that can produce the root subproblem. Every process of a distributed run
// holds the same Problem, which is what makes subproblem codes
// self-contained (§5.3.1). *Knapsack and *QAP satisfy it.
type Problem interface {
	Root() Subproblem
}

// Expander is the code-driven protocol.Expander: it resolves a subproblem
// code into live solver state by re-deriving it from the initial problem
// data — the paper's central §5.3.1 claim, exercised for real instead of
// replayed from a recorded tree.
//
// §5.3.1 needs that only when a code arrives cold. On the warm path the
// state rides on the pool item (protocol.Item.State), exactly as the
// sequential engine's Item.Sub does: Root, Locate and every Outcome child
// carry it, and Outcome branches what it is handed. The expander keeps no
// table of states, so there is nothing to key, grow, cap or evict, and a
// popped, pruned or granted-away subproblem is garbage the moment its pool
// entry goes.
//
// The cold path — a granted or recovered code, or an item built from a bare
// code — replays the ⟨variable, branch⟩ decisions from the root. The codes
// of one grant or one recovery plan are neighbours in the tree, so the
// replay keeps the states along the previous code's path and restarts from
// the longest prefix the two codes share. That stack is at most one tree
// depth of states. Because branching is deterministic, every process derives
// identical state for the same code.
//
// A warm expansion costs two allocations: Branch makes both child states in
// one object, code.Children makes both child codes in one array, and the
// children ride out in the expander's own two-item scratch, which the next
// Outcome overwrites (the protocol.Expander contract).
//
// An Expander is not safe for concurrent use: create one per process, which
// also matches the model — each process re-derives subproblems from its own
// copy of the initial data.
type Expander struct {
	root Subproblem
	// The previous cold replay: path[d] is the state behind prev[:d+1].
	prev code.Code
	path []Subproblem
	kids [2]protocol.Item // the last Outcome's Children
}

var _ protocol.Expander = (*Expander)(nil)

// NewExpander builds an expander over p's initial data.
func NewExpander(p Problem) *Expander {
	return &Expander{root: p.Root()}
}

// replay derives the state behind c from the initial data, restarting from
// the deepest state it shares with the previous replay. ok is false when c
// disagrees with the deterministic branching — a code no honest process can
// produce.
func (e *Expander) replay(c code.Code) (Subproblem, bool) {
	d := 0
	for d < len(c) && d < len(e.prev) && c[d] == e.prev[d] {
		d++
	}
	s := e.root
	if d > 0 {
		s = e.path[d-1]
	}
	clear(e.path[d:]) // abandoned states must not outlive the truncation
	e.prev, e.path = e.prev[:d], e.path[:d]
	for ; d < len(c); d++ {
		v, zero, one, ok := s.Branch()
		if !ok || v != c[d].Var {
			return nil, false
		}
		if c[d].Branch == 0 {
			s = zero
		} else {
			s = one
		}
		e.prev, e.path = append(e.prev, c[d]), append(e.path, s)
	}
	return s, true
}

// Locate implements protocol.Expander: re-derive the state behind c and
// price it.
func (e *Expander) Locate(c code.Code) (protocol.Item, bool) {
	s, ok := e.replay(c)
	if !ok {
		return protocol.Item{}, false
	}
	return protocol.Item{Code: c, Bound: s.Bound(), State: s}, true
}

// Root implements protocol.Expander.
func (e *Expander) Root() protocol.Item {
	return protocol.Item{Code: code.Root(), Bound: e.root.Bound(), State: e.root}
}

// Outcome implements protocol.Expander: branch the subproblem exactly as
// the sequential engine would — feasibility first, then decomposition —
// computing children bounds on the fly.
func (e *Expander) Outcome(it protocol.Item) protocol.Outcome {
	s, ok := it.State.(Subproblem)
	if !ok {
		if s, ok = e.replay(it.Code); !ok {
			// Unreachable for codes produced by honest processes; fathom
			// defensively so the protocol completes rather than wedges.
			return protocol.Outcome{}
		}
	}
	if val, feasible := s.Feasible(); feasible {
		return protocol.Outcome{Feasible: true, Value: val}
	}
	v, zero, one, ok := s.Branch()
	if !ok {
		return protocol.Outcome{} // infeasible leaf
	}
	zc, oc := it.Code.Children(v)
	e.kids = [2]protocol.Item{
		{Code: zc, Bound: zero.Bound(), State: zero},
		{Code: oc, Bound: one.Bound(), State: one},
	}
	return protocol.Outcome{Children: e.kids[:]}
}

// SolveProblem runs the sequential engine of §2 over p's root with
// depth-first selection and pruning: the single-processor reference every
// distributed run is checked against.
func SolveProblem(p Problem) Result {
	return Solve(p.Root(), Options{Pool: NewDepthFirst()})
}

// ParseSpec builds a Problem from a compact spec string, the vocabulary of
// cmd/dbbsim's -problem flag:
//
//	knapsack:<items>:<seed>   weakly correlated 0/1 knapsack
//	qap:<order>:<seed>        symmetric quadratic assignment
func ParseSpec(spec string) (Problem, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("bnb: problem spec %q, want kind:size:seed", spec)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n <= 0 {
		return nil, fmt.Errorf("bnb: problem size %q", parts[1])
	}
	seed, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bnb: problem seed %q", parts[2])
	}
	r := rand.New(rand.NewSource(seed))
	switch parts[0] {
	case "knapsack":
		return RandomKnapsack(r, n), nil
	case "qap":
		if n > 30 {
			return nil, fmt.Errorf("bnb: QAP order %d exceeds the 30-facility encoding limit", n)
		}
		return RandomQAP(r, n), nil
	default:
		return nil, fmt.Errorf("bnb: unknown problem kind %q (want knapsack or qap)", parts[0])
	}
}
