package ctree

import (
	"sort"

	"gossipbnb/internal/code"
)

// ListTable is the naive representation the paper's description literally
// suggests: a flat list of codes, contracted by repeatedly scanning for
// sibling pairs and subsumed entries. It is correct but asymptotically worse
// than the trie; the tests keep it as the reference the trie must agree with.
type ListTable struct {
	codes []code.Code // invariant: contracted, sorted by Compare
}

// NewList returns an empty ListTable.
func NewList() *ListTable { return &ListTable{} }

// Insert records completion of c and re-contracts the list.
func (l *ListTable) Insert(c code.Code) {
	if l.Contains(c) {
		return
	}
	// Remove entries subsumed by c.
	kept := l.codes[:0]
	for _, e := range l.codes {
		if !c.IsAncestorOf(e) {
			kept = append(kept, e)
		}
	}
	l.codes = append(kept, c.Clone())
	l.contract()
	sort.Slice(l.codes, func(i, j int) bool { return l.codes[i].Compare(l.codes[j]) < 0 })
}

// contract repeatedly merges sibling pairs into their parent until no pair
// remains — the paper's "successive code compressions".
func (l *ListTable) contract() {
	for {
		merged := false
		for i := 0; i < len(l.codes) && !merged; i++ {
			for j := i + 1; j < len(l.codes); j++ {
				if l.codes[i].SiblingOf(l.codes[j]) {
					p := l.codes[i].Parent()
					l.codes = append(l.codes[:j], l.codes[j+1:]...)
					l.codes = append(l.codes[:i], l.codes[i+1:]...)
					// The parent may itself be subsumed or subsume others;
					// route through the same cleanup as Insert.
					kept := l.codes[:0]
					dup := false
					for _, e := range l.codes {
						if e.Equal(p) || e.IsAncestorOf(p) {
							dup = true
						}
						if !p.IsAncestorOf(e) || dup {
							kept = append(kept, e)
						}
					}
					l.codes = kept
					if !dup {
						l.codes = append(l.codes, p)
					}
					merged = true
					break
				}
			}
		}
		if !merged {
			return
		}
	}
}

// Contains reports whether c is subsumed by the list.
func (l *ListTable) Contains(c code.Code) bool {
	for _, e := range l.codes {
		if e.Equal(c) || e.IsAncestorOf(c) {
			return true
		}
	}
	return false
}

// Complete reports whether the list contracted to the root code.
func (l *ListTable) Complete() bool {
	return len(l.codes) == 1 && l.codes[0].IsRoot()
}

// Codes returns a copy of the contracted list.
func (l *ListTable) Codes() []code.Code {
	out := make([]code.Code, len(l.codes))
	for i, c := range l.codes {
		out[i] = c.Clone()
	}
	return out
}

// Len returns the number of codes in the contracted list.
func (l *ListTable) Len() int { return len(l.codes) }

// WireSize returns the encoded size of the list: its codes as one batch in the
// list's own order (by depth, then decisions — not prefix order), where
// neighbours share less than a trie frontier's do.
func (l *ListTable) WireSize() int { return code.WireSizeAll(l.codes) }
