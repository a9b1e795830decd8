package ctree

import (
	"fmt"
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
//   - a fixed constant for a complete vertex. Its branchVar is dead state
//     (contraction marks parents complete without clearing it), and "this
//     whole subtree is done" means the same thing wherever it appears, so
//     the constant is position-independent by design;
//   - for an internal vertex, a mix of its branching variable and, per
//     branch, a presence marker and the child's digest;
//   - a distinct constant for the bare root of an empty table.
//
// Digests are cached in a side array beside the arena, digests[i] for vertex
// i, which a table allocates the first time it is asked for a digest; the
// vertex keeps only the validity bit (metaDigestOK). From then on insertFrom
// clears the bit of every vertex on its mutation path (the same path the
// contraction loop walks), and Digest recomputes only invalidated subtrees.
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
		return t.digests[at]
	}
	var h uint64
	switch {
	case n.complete():
		h = digestComplete
	case n.leaf():
		h = digestEmpty // the bare root of an empty table
	default:
		h = mixDigest(digestEmpty, uint64(n.branchVar))
		for b := 0; b < 2; b++ {
			if n.children[b] != 0 {
				h = mixDigest(h, t.digestOf(n.children[b]))
			} else {
				h = mixDigest(h, digestAbsent)
			}
		}
	}
	t.digests[at] = h
	n.meta |= metaDigestOK
	return h
}

// growDigests extends the digest side array to the arena's length before a
// digest walk: vertices created since the last one have no slot yet.
func (t *Table) growDigests() {
	if n := len(t.nodes); len(t.digests) < n {
		t.digests = slices.Grow(t.digests, n-len(t.digests))[:n]
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
	at := uint32(0)
	for _, d := range prefix {
		n := &t.nodes[at]
		if n.complete() {
			return digestComplete, true, true
		}
		next := n.children[d.Branch&1]
		if next == 0 || n.branchVar != d.Var {
			return 0, false, false
		}
		at = next
	}
	n := &t.nodes[at]
	if !n.complete() && n.leaf() {
		return 0, false, false
	}
	t.growDigests()
	return t.digestOf(at), true, n.complete()
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
		if n.complete() {
			return 0, kids, false
		}
		next := n.children[d.Branch&1]
		if next == 0 || n.branchVar != d.Var {
			return 0, kids, false
		}
		n = &t.nodes[next]
	}
	if n.complete() || n.leaf() {
		return 0, kids, false
	}
	t.growDigests()
	for b := 0; b < 2; b++ {
		if n.children[b] != 0 {
			kids[b] = ChildDigest{Present: true, Digest: t.digestOf(n.children[b])}
		}
	}
	return n.branchVar, kids, true
}

// SubtreeCodes exports the frontier of the subtree at prefix, relative to
// prefix (an empty code in the result means prefix itself is complete). A
// prefix the table knows nothing under yields nil. If max > 0 and the
// subtree frontier exceeds max codes, ok is false and nothing is exported —
// the responder should describe children digests instead.
func (t *Table) SubtreeCodes(prefix code.Code, max int) (rel []code.Code, ok bool) {
	at := uint32(0)
	for _, d := range prefix {
		n := &t.nodes[at]
		if n.complete() {
			return []code.Code{code.Root()}, true
		}
		next := n.children[d.Branch&1]
		if next == 0 || n.branchVar != d.Var {
			return nil, true // nothing known under prefix
		}
		at = next
	}
	cnt, decs, ok := t.frontierSize(at, max)
	if !ok {
		return nil, false
	}
	return t.materialise(at, cnt, decs), true
}

// InsertSubtree merges an exported subtree back in: each relative code is
// re-anchored under prefix and inserted. It returns how many codes changed
// the table and how many failed validation, like InsertAll. The joined codes
// are carved, capacity-clipped, from one allocation; a constant prefix keeps
// rel's order, so a SubtreeCodes export takes InsertAll's ordered path.
func (t *Table) InsertSubtree(prefix code.Code, rel []code.Code) (changed, errs int) {
	if len(rel) == 0 {
		return 0, 0
	}
	decs := len(rel) * len(prefix)
	for _, r := range rel {
		decs += len(r)
	}
	buf := make(code.Code, 0, decs)
	abs := make([]code.Code, len(rel))
	for i, r := range rel {
		at := len(buf)
		buf = append(append(buf, prefix...), r...)
		abs[i] = buf[at:len(buf):len(buf)]
	}
	return t.InsertAll(abs)
}

// EncodeSubtree appends the wire encoding of one exported subtree: the
// prefix code followed by the batch of frontier codes relative to it.
func EncodeSubtree(dst []byte, prefix code.Code, rel []code.Code) []byte {
	dst = prefix.Append(dst)
	return code.AppendAll(dst, rel)
}

// SubtreeWireSize returns the number of bytes EncodeSubtree produces.
func SubtreeWireSize(prefix code.Code, rel []code.Code) int {
	return prefix.WireSize() + code.WireSizeAll(rel)
}

// DecodeSubtree parses EncodeSubtree output. Like Decode, the whole buffer
// must be exactly one encoded subtree: a malformed prefix or relative code
// fails the parse, and trailing bytes after the declared code count are
// rejected, so a corrupt or padded frame cannot half-decode.
func DecodeSubtree(buf []byte) (prefix code.Code, rel []code.Code, err error) {
	prefix, n, err := code.Decode(buf)
	if err != nil {
		return nil, nil, fmt.Errorf("ctree: subtree prefix: %w", err)
	}
	rel, m, err := code.DecodeAll(buf[n:])
	if err != nil {
		return nil, nil, fmt.Errorf("ctree: subtree codes: %w", err)
	}
	if n+m != len(buf) {
		return nil, nil, fmt.Errorf("ctree: subtree: %d trailing bytes", len(buf)-n-m)
	}
	return prefix, rel, nil
}
