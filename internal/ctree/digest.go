package ctree

import (
	"slices"

	"gossipbnb/internal/code"
)

// Content-addressed digests over the completion trie, the foundation of the
// protocol's anti-entropy diff gossip (DESIGN.md "Anti-entropy diff gossip").
//
// Contraction makes the trie canonical: every leaf is complete, so the trie's
// shape and completion marks are a pure function of the frontier set — two
// tables with equal frontiers have structurally identical tries, and
// (modulo hash collisions) equal root digests. The digest of a vertex is:
//
//   - a fixed constant for a complete vertex — a doneChild slot, or the root
//     of a complete table. "This whole subtree is done" means the same thing
//     wherever it appears, so the constant is position-independent by
//     design, and a slot, having no arena vertex, has no cache entry either;
//   - for an internal vertex, a mix of its branching variable and, per
//     branch, a presence marker and the child's digest;
//   - a distinct constant for the bare root of an empty table.
//
// Digests are cached in a side array beside the arena, digests[i] for vertex
// i, which a table allocates in its scratch the first time it is asked for a
// digest; the vertex keeps only the validity bit (metaDigestOK). From then on
// insertFrom clears the bit of every vertex on its mutation path (the same
// path the contraction loop walks), and Digest recomputes only invalidated
// subtrees.
// The property tests in digest_test.go pin incremental == recompute-from-
// scratch and digest equality ⇔ frontier equality over arbitrary mutation
// sequences.

const (
	// digestComplete is the digest of every complete vertex.
	digestComplete = 0x9ae16a3b2f90404f
	// digestEmpty seeds the digest of an internal vertex; it is also the
	// digest of an empty table's bare root.
	digestEmpty = 0xc3a5c85c97cb3127
	// digestAbsent is mixed in place of a missing child's digest.
	digestAbsent = 0x165667b19e3779f9
)

// mixDigest folds v into h, order-sensitively. The splitmix64 finalizer
// diffuses v across all 64 bits first, so near-identical inputs (adjacent
// variable numbers, similar child digests) land far apart.
func mixDigest(h, v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return (h ^ v) * 0x100000001b3
}

// digestOf returns n's subtree digest, recomputing and re-caching it if a
// mutation invalidated it. The side array must cover the arena (growDigests).
// Recursion depth is the trie depth — the length of the longest inserted code.
func (t *Table) digestOf(at uint32) uint64 {
	n := &t.nodes[at] // digests create no vertex: the arena stays put
	if n.meta&metaDigestOK != 0 {
		return t.sc.digests[at]
	}
	var h uint64
	switch {
	case n.complete():
		h = digestComplete
	case n.leaf():
		h = digestEmpty // the bare root of an empty table
	default:
		h = mixDigest(digestEmpty, uint64(n.branchVar))
		for _, c := range n.children {
			h = mixDigest(h, t.childDigest(c))
		}
	}
	t.sc.digests[at] = h
	n.meta |= metaDigestOK
	return h
}

// childDigest is the digest of what a child slot holds: nothing, a complete
// vertex, or an inner vertex's subtree.
func (t *Table) childDigest(c uint32) uint64 {
	switch c {
	case 0:
		return digestAbsent
	case doneChild:
		return digestComplete
	}
	return t.digestOf(c)
}

// growDigests extends the digest side array to the arena's length before a
// digest walk: vertices created since the last one have no slot yet.
func (t *Table) growDigests() {
	sc := t.work()
	if n := len(t.nodes); len(sc.digests) < n {
		sc.digests = slices.Grow(sc.digests, n-len(sc.digests))[:n]
	}
}

// Digest returns the content digest of the whole table. Tables with equal
// frontiers have equal digests; unequal frontiers collide with probability
// ~2^-64. The result is cached until the next mutation.
func (t *Table) Digest() uint64 {
	t.growDigests()
	return t.digestOf(0)
}

// DigestAt returns the digest of the subtree at prefix. known is false when
// the table records no completion under prefix — no vertex on the path, a
// branching-variable mismatch, or the bare root of an empty table. complete
// reports that the whole subtree is covered by a complete vertex at or above
// prefix's end.
func (t *Table) DigestAt(prefix code.Code) (digest uint64, known, complete bool) {
	if t.Complete() {
		return digestComplete, true, true
	}
	at := uint32(0)
	for _, d := range prefix {
		n := &t.nodes[at]
		next := n.children[d.Branch&1]
		switch {
		case next == 0 || n.branchVar != d.Var:
			return 0, false, false
		case next == doneChild:
			return digestComplete, true, true
		}
		at = next
	}
	if t.nodes[at].leaf() {
		return 0, false, false // the bare root of an empty table
	}
	t.growDigests()
	return t.digestOf(at), true, false
}

// ChildDigest describes one branch of a trie vertex to an anti-entropy
// walker: whether the branch holds any completions, and the digest of its
// subtree if so.
type ChildDigest struct {
	Present bool
	Digest  uint64
}

// Children returns the branching variable and per-branch digests of the
// vertex at prefix, for a sync responder describing a subtree too large to
// inline. ok is false when no vertex exists at prefix or the subtree there
// is already complete (nothing to walk into).
func (t *Table) Children(prefix code.Code) (branchVar uint32, kids [2]ChildDigest, ok bool) {
	n := &t.nodes[0]
	for _, d := range prefix {
		next := n.children[d.Branch&1]
		if next == 0 || next == doneChild || n.branchVar != d.Var {
			return 0, kids, false
		}
		n = &t.nodes[next]
	}
	if n.leaf() { // the bare root of an empty table, or a complete one
		return 0, kids, false
	}
	t.growDigests()
	for b, c := range n.children {
		if c != 0 {
			kids[b] = ChildDigest{Present: true, Digest: t.childDigest(c)}
		}
	}
	return n.branchVar, kids, true
}

// Subtree returns the part of the table at prefix as a table of its own,
// rooted at prefix: its codes are relative to prefix, the inverse of MergeAt.
// A prefix the table knows nothing under yields the empty table, and one at or
// under a complete vertex the complete one (Done); both are shared and frozen,
// as is the copy: nothing may mutate what Subtree returns. If max > 0 and the
// subtree's frontier holds more than max codes, ok is false and nothing is
// copied — the responder should describe children digests instead.
func (t *Table) Subtree(prefix code.Code, max int) (sub *Table, ok bool) {
	if t.Complete() {
		return doneSnapshot, true
	}
	at := uint32(0)
	for _, d := range prefix {
		n := &t.nodes[at]
		next := n.children[d.Branch&1]
		switch {
		case next == 0 || n.branchVar != d.Var:
			return emptySnapshot, true // nothing known under prefix
		case next == doneChild:
			return doneSnapshot, true
		}
		at = next
	}
	if t.nodes[at].leaf() {
		return emptySnapshot, true
	}
	vertices, ok := t.extent(at, max)
	if !ok {
		return nil, false
	}
	sub = &Table{nodes: make([]node, 1, vertices), nodeCount: 1, gaps: 1} // New, sized
	sub.mergeAt(0, t, at)
	sub.snap = sub
	return sub, true
}
