package protocol

import "gossipbnb/internal/code"

// Item is one active problem: its self-contained code, its recorded bound,
// and two opaque handles that belong to whichever Expander produced it and
// save re-resolving the code on pop — Ref for expanders that index a recorded
// tree, State for expanders that hold live solver state. The core copies
// both blindly and never sends either: only the code crosses the wire
// (§5.3.1), and the receiving process's Expander.Locate fills them in afresh.
// A state therefore lives exactly as long as its pool entry.
type Item struct {
	Code  code.Code
	Ref   int32
	Bound float64
	State any
}

// pool holds the active problems under either selection rule (§2): a binary
// heap on bound for best-first, a LIFO stack for depth-first.
//
// steal always removes the entry with the smallest bound, under BOTH
// disciplines. For depth-first the stack is ordered by recency, not bound,
// so the smallest bound can sit anywhere in it and steal must do a linear
// scan — O(n), paid only on work grants, which are rare next to pushes and
// pops. The smallest-bound entry of a depth-first stack is the shallowest,
// largest outstanding region: the classic steal-from-the-bottom choice,
// which hands a requester a big chunk of work and keeps the granter's
// cheap local refinements.
type pool struct {
	items []Item
	dfs   bool
}

func (p *pool) Len() int { return len(p.items) }

func (p *pool) push(it Item) {
	p.items = append(p.items, it)
	if p.dfs {
		return
	}
	i := len(p.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if p.items[parent].Bound <= p.items[i].Bound {
			break
		}
		p.items[i], p.items[parent] = p.items[parent], p.items[i]
		i = parent
	}
}

func (p *pool) pop() Item {
	if p.dfs {
		n := len(p.items) - 1
		it := p.items[n]
		p.items[n] = Item{}
		p.items = p.items[:n]
		return it
	}
	top := p.items[0]
	n := len(p.items) - 1
	p.items[0] = p.items[n]
	p.items[n] = Item{}
	p.items = p.items[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(p.items) && p.items[l].Bound < p.items[m].Bound {
			m = l
		}
		if r < len(p.items) && p.items[r].Bound < p.items[m].Bound {
			m = r
		}
		if m == i {
			break
		}
		p.items[i], p.items[m] = p.items[m], p.items[i]
		i = m
	}
	return top
}

// steal removes and returns the entry with the smallest bound.
func (p *pool) steal() Item {
	if !p.dfs {
		return p.pop()
	}
	best := 0
	for i := range p.items {
		if p.items[i].Bound < p.items[best].Bound {
			best = i
		}
	}
	it := p.items[best]
	copy(p.items[best:], p.items[best+1:])
	p.items[len(p.items)-1] = Item{}
	p.items = p.items[:len(p.items)-1]
	return it
}
