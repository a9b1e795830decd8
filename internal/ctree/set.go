package ctree

import "gossipbnb/internal/code"

// Set is an exact set of codes on the completion trie's vertices. Unlike a
// Table it never contracts: holding both children of a code says nothing
// about the code itself, and a member may be an ancestor of another. A member
// is a vertex with its metaComplete bit set, and codes that share a prefix
// share its vertices, so a set costs 16 bytes per distinct prefix, not a
// string per code, and adding allocates nothing once the arena has grown —
// Reset keeps it for the next fill. Like a Table it assumes deterministic
// decomposition: a code that branches a vertex on a different variable than
// the set holds is refused with a VarMismatchError and leaves the set as it
// was. The zero value is an empty set. A Set is not safe for concurrent use.
type Set struct {
	// nodes is the vertex arena, nodes[0] the root once anything was added.
	// Nothing is ever removed but by Reset, so there is no free list: Reset
	// truncates, and later adds overwrite the old vertices in place.
	nodes []node
	n     int // members
}

// Add puts c in the set and reports whether it was there already.
func (s *Set) Add(c code.Code) (present bool, err error) {
	if len(s.nodes) == 0 {
		s.nodes = append(s.nodes, node{})
	}
	at := uint32(0)
	for depth, d := range c {
		n := &s.nodes[at]
		if n.leaf() {
			n.branchVar = d.Var
		} else if n.branchVar != d.Var {
			// Every vertex above was there before this call: below the first
			// one it creates, each is a new leaf, which takes any variable.
			return false, &VarMismatchError{Code: c, Depth: depth, Want: n.branchVar, Got: d.Var}
		}
		b := d.Branch & 1
		next := n.children[b]
		if next == 0 {
			next = s.newChild(at, b) // n may be stale now: the arena may have moved
		}
		at = next
	}
	return s.mark(at), nil
}

// newChild appends a vertex and links it as the child of vertex p on branch b.
func (s *Set) newChild(p uint32, b uint8) uint32 {
	i := uint32(len(s.nodes))
	s.nodes = append(s.nodes, node{})
	s.nodes[p].children[b] = i
	return i
}

// mark makes vertex i a member and reports whether it was one already.
func (s *Set) mark(i uint32) (present bool) {
	n := &s.nodes[i]
	if n.complete() {
		return true
	}
	n.meta |= metaComplete
	s.n++
	return false
}

// Len returns the number of codes in the set.
func (s *Set) Len() int { return s.n }

// Reset empties the set in place, keeping the arena's capacity for the next
// fill, so refilling a set no larger than before allocates nothing.
func (s *Set) Reset() {
	if len(s.nodes) > 0 {
		s.nodes = s.nodes[:1]
		s.nodes[0] = node{}
	}
	s.n = 0
}

// refusedMark stands, on Union's walk stack, for a vertex of the receiver
// under which the rest of the argument's subtree is refused.
const refusedMark = ^uint32(0)

// Union adds every code of o to s, leaving s as adding them one by one, in any
// order, would: added counts the codes s did not hold, refused those that
// branch a vertex of s on another variable. It walks the two tries in
// lockstep, one vertex of s per vertex of o, on an explicit stack. o is only
// read.
func (s *Set) Union(o *Set) (added, refused int) {
	if o.n == 0 {
		return 0, 0
	}
	if len(s.nodes) == 0 {
		s.nodes = append(s.nodes, node{})
	}
	var stk [walkDepth][2]uint32
	stack := append(stk[:0], [2]uint32{0, 0})
	for len(stack) > 0 {
		si, oi := stack[len(stack)-1][0], stack[len(stack)-1][1]
		stack = stack[:len(stack)-1]
		on := &o.nodes[oi] // o is never written: on stays valid
		switch {
		case !on.complete():
		case si == refusedMark:
			refused++
		case !s.mark(si):
			added++
		}
		if on.leaf() {
			continue
		}
		if si != refusedMark {
			n := &s.nodes[si]
			if n.leaf() {
				n.branchVar = on.branchVar
			} else if n.branchVar != on.branchVar {
				si = refusedMark
			}
		}
		for b := uint8(0); b < 2; b++ {
			oc := on.children[b]
			if oc == 0 {
				continue
			}
			sc := refusedMark
			if si != refusedMark {
				if sc = s.nodes[si].children[b]; sc == 0 {
					sc = s.newChild(si, b)
				}
			}
			stack = append(stack, [2]uint32{sc, oc})
		}
	}
	return added, refused
}
