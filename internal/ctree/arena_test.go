package ctree

// Tests for the vertex arena: vertices are indices into one slice that starts
// at the root alone and grows by append, so a walk that creates vertices must
// survive the arena moving under it; Reset and Clone carry the free list, which
// is indices too; and the sizes the design argues from are pinned.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"gossipbnb/internal/code"
)

// TestArenaGrowsMidWalk: a fresh table holds one vertex at capacity one, so a
// single deep insert reallocates the arena several times between the first
// vertex it creates and the last, and the sibling inserts that follow pop and
// create vertices while contracting. Every observable must match the
// reference throughout.
func TestArenaGrowsMidWalk(t *testing.T) {
	const depth = 70
	deep := code.Root()
	for d := 0; d < depth; d++ {
		deep = deep.Child(uint32(d+1), uint8(d)&1)
	}
	tb, ref := New(), newRef()
	if cap(tb.nodes) != 1 {
		t.Fatalf("a fresh arena has capacity %d, want 1 (the root)", cap(tb.nodes))
	}
	ok, err := tb.Insert(deep)
	ref.Insert(deep)
	if !ok || err != nil {
		t.Fatalf("Insert(deep) = %v, %v", ok, err)
	}
	if len(tb.nodes) != depth+1 || tb.NodeCount() != depth+1 {
		t.Fatalf("arena holds %d vertices, NodeCount %d, want %d", len(tb.nodes), tb.NodeCount(), depth+1)
	}
	probes := []code.Code{deep, deep[:depth/2], deep.Sibling()}
	checkAgainstRef(t, tb, ref, probes)
	// Complete the sibling at every level, deepest first: each insert creates
	// one vertex and contracts one level, ending at the root.
	for d := depth; d > 0; d-- {
		s := deep[:d].Sibling()
		tb.Insert(s)
		ref.Insert(s)
		checkAgainstRef(t, tb, ref, probes)
	}
	if !tb.Complete() || tb.NodeCount() != 1 {
		t.Fatalf("Complete %v, NodeCount %d after completing every sibling", tb.Complete(), tb.NodeCount())
	}
}

// TestArenaResetReuse: Reset threads every vertex onto the free list, so
// refilling the table neither allocates nor lengthens the arena.
func TestArenaResetReuse(t *testing.T) {
	leaves := counterLeaves(8)
	tb := New()
	fill := func() {
		for i, c := range leaves {
			if i%5 != 0 { // partial: the table stays a real trie until Reset
				tb.Insert(c)
			}
		}
	}
	fill()
	n, want := len(tb.nodes), cloneCodes(tb.Codes())
	tb.Reset()
	if tb.NodeCount() != 1 || tb.Len() != 0 || tb.Complete() {
		t.Fatalf("after Reset: NodeCount %d, Len %d, Complete %v", tb.NodeCount(), tb.Len(), tb.Complete())
	}
	avg := testing.AllocsPerRun(20, func() {
		fill()
		tb.Reset()
	})
	if avg > 0 {
		t.Errorf("refilling a Reset table allocates %.1f times, want 0", avg)
	}
	fill()
	if len(tb.nodes) != n {
		t.Errorf("arena grew from %d to %d vertices across Reset-and-refill", n, len(tb.nodes))
	}
	if !codesExactlyEqual(tb.Codes(), want) {
		t.Errorf("refilled table holds %v, want %v", tb.Codes(), want)
	}
}

// TestArenaCloneIndependent: a clone is one copy of the arena, free list
// included. Clone and original must then diverge freely — each popping its
// own copy of the free list, each growing its own arena — and their digests,
// cached bits copied along, must stay those of their own frontiers.
func TestArenaCloneIndependent(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 9)
		a, refA := New(), newRef()
		for i := 0; i < len(leaves); i++ { // contractions along the way feed the free list
			c := leaves[r.Intn(len(leaves))]
			a.Insert(c)
			refA.Insert(c)
		}
		a.Digest() // some vertices now cache a digest the clone inherits
		b, refB := a.Clone(), newRef()
		refB.InsertAll(refA.Codes())
		if a.free != b.free {
			t.Fatalf("seed %d: clone's free list starts at %d, original's at %d", seed, b.free, a.free)
		}
		checkAgainstRef(t, b, refB, leaves)
		if b.Digest() != a.Digest() || b.Digest() != scratchDigest(b, 0) {
			t.Fatalf("seed %d: clone digest %#x, original %#x, from scratch %#x",
				seed, b.Digest(), a.Digest(), scratchDigest(b, 0))
		}
		for step := 0; step < 2*len(leaves); step++ {
			tb, ref := a, refA
			if r.Intn(2) == 0 {
				tb, ref = b, refB
			}
			c := leaves[r.Intn(len(leaves))]
			tb.Insert(c)
			ref.Insert(c)
			checkAgainstRef(t, a, refA, leaves)
			checkAgainstRef(t, b, refB, leaves)
			if a.Digest() != scratchDigest(a, 0) || b.Digest() != scratchDigest(b, 0) {
				t.Fatalf("seed %d step %d: a cached digest went stale after the tables diverged", seed, step)
			}
		}
	}
}

// TestArenaSizes pins the two sizes DESIGN.md argues from: a vertex is 16
// pointer-free bytes, and an empty table — 20 000 of them in a 10 000-process
// run — costs two allocations: a 208-byte Table (the digest side array's
// header included) and a 16-byte vertex, within the 224 bytes an empty table
// took with 32-byte vertices.
func TestArenaSizes(t *testing.T) {
	if sz := unsafe.Sizeof(node{}); sz != 16 {
		t.Errorf("unsafe.Sizeof(node{}) = %d, want 16", sz)
	}
	const n = 1000
	keep := make([]*Table, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = New()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 208+16 {
		t.Errorf("New() allocates %d bytes, want ≤ %d", per, 208+16)
	}
	if per := (after.Mallocs - before.Mallocs) / n; per > 2 {
		t.Errorf("New() makes %d allocations, want ≤ 2", per)
	}
	runtime.KeepAlive(keep)
}

// TestDepthLimit: a vertex packs its depth beside two flag bits, and the
// table holds codes up to maxDepth decisions. Insert and InsertAll refuse a
// deeper code with ErrDepth and leave the table as it was, and Decode refuses
// a trie with a vertex deeper than that; a code at the limit goes in and
// round-trips. Merge cannot meet one: its argument is a table too.
func TestDepthLimit(t *testing.T) {
	if maxDepth >= 1<<(32-metaDepthShift) {
		t.Fatalf("maxDepth %d does not fit the %d-bit depth field", maxDepth, 32-metaDepthShift)
	}
	deep := make(code.Code, maxDepth+1) // all on variable 0, branch 0
	tb := New()
	if ok, err := tb.Insert(deep); ok || !errors.Is(err, ErrDepth) {
		t.Fatalf("Insert of a depth-%d code = %v, %v; want ErrDepth", len(deep), ok, err)
	}
	if ch, er := tb.InsertAll([]code.Code{deep[:3], deep}); ch != 1 || er != 1 {
		t.Fatalf("InsertAll with one code past the limit = (%d, %d), want (1, 1)", ch, er)
	}
	if tb.Len() != 1 || tb.NodeCount() != 4 || !tb.Contains(deep[:3]) {
		t.Fatalf("a refused code changed the table: Len %d, NodeCount %d", tb.Len(), tb.NodeCount())
	}
	if _, err := Decode(chainEncoding(maxDepth + 1)); !errors.Is(err, ErrDepth) {
		t.Fatalf("Decode of a trie one level past the limit = %v, want ErrDepth", err)
	}
	at := New()
	if ok, err := at.Insert(deep[:maxDepth]); !ok || err != nil {
		t.Fatalf("Insert of a depth-%d code = %v, %v; want it accepted", maxDepth, ok, err)
	}
	if at.NodeCount() != maxDepth+1 || at.Decisions() != maxDepth || !at.Contains(deep[:maxDepth]) {
		t.Fatalf("a code at the limit: NodeCount %d, Decisions %d", at.NodeCount(), at.Decisions())
	}
	enc := at.Encode(nil)
	if !bytes.Equal(enc, chainEncoding(maxDepth)) {
		t.Fatal("the table of one code on variable 0, branch 0 throughout does not encode as a chain")
	}
	if back, err := Decode(enc); err != nil || back.Decisions() != maxDepth {
		t.Fatalf("Decode of a trie at the limit = %v", err)
	}
	// Below a prefix the limit counts the prefix too: a subtree that would
	// reach one level past it is refused whole, and one that reaches it lands.
	sub, _ := Decode(chainEncoding(3))
	for _, tc := range []struct {
		prefix int
		ok     bool
	}{{maxDepth - 3, true}, {maxDepth - 2, false}} {
		tb := New()
		ch, er := tb.MergeAt(deep[:tc.prefix], sub)
		if (ch == 1 && er == 0) != tc.ok || (ch == 0 && er == 1) == tc.ok {
			t.Fatalf("MergeAt below a depth-%d prefix = (%d, %d), want it accepted %v", tc.prefix, ch, er, tc.ok)
		}
		if tb.Len() != ch || (tb.NodeCount() == 1) == tc.ok {
			t.Fatalf("MergeAt below a depth-%d prefix left Len %d, NodeCount %d", tc.prefix, tb.Len(), tb.NodeCount())
		}
	}
}

// chainEncoding is the encoding of a table whose one code is depth decisions
// on variable 0, branch 0: depth inner vertices with only child 0 (tag 01),
// then the complete leaf (tag 00), then depth variables of one zero byte each.
func chainEncoding(depth int) []byte {
	n := depth + 1
	buf := binary.AppendUvarint(nil, uint64(n))
	at := len(buf)
	buf = append(buf, make([]byte, (n+3)/4+depth)...)
	for k := 0; k < depth; k++ {
		buf[at+k/4] |= 1 << (2 * (k % 4))
	}
	return buf
}
