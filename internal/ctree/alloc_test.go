package ctree

// Allocation regression guards for the table hot path (ISSUE 3, ISSUE 16):
// the O(depth) insert with a warm free list is allocation-free; Len and
// EncodedSize are allocation-free always, straight after a mutation included;
// Codes is allocation-free between mutations and costs a handful of chunks,
// not one allocation per code, after one. These bounds are what keeps the
// hot-path wins from silently eroding; if a change legitimately needs to
// allocate here, it has to argue with this file first.

import (
	"math/rand"
	"slices"
	"testing"

	"gossipbnb/internal/code"
)

// counterLeaves returns the leaves of a complete binary tree of the given
// depth in binary-counter order (level d branches on variable d+1).
func counterLeaves(depth int) []code.Code {
	n := 1 << depth
	out := make([]code.Code, 0, n)
	for i := 0; i < n; i++ {
		c := code.Root()
		for d := 0; d < depth; d++ {
			c = c.Child(uint32(d+1), uint8(i>>(depth-1-d))&1)
		}
		out = append(out, c)
	}
	return out
}

// TestInsertSteadyStateAllocs: once the free list is warm, a full
// insert-everything-and-reset cycle — every trie vertex popped off the free
// list, every contraction, every prune — performs zero heap allocations.
func TestInsertSteadyStateAllocs(t *testing.T) {
	leaves := counterLeaves(10)
	tb := New()
	for _, c := range leaves { // warm: grows scratch + populates the free list
		if _, err := tb.Insert(c); err != nil {
			t.Fatal(err)
		}
	}
	if !tb.Complete() {
		t.Fatal("warm-up did not contract to the root")
	}
	tb.Reset()
	avg := testing.AllocsPerRun(20, func() {
		for _, c := range leaves {
			tb.Insert(c)
		}
		tb.Reset()
	})
	if avg > 0 {
		t.Errorf("steady-state Insert cycle allocates: %.1f allocs per %d inserts, want 0",
			avg, len(leaves))
	}
}

// TestSumsAfterMutationAllocs: Len and EncodedSize read sums the mutation itself
// kept current, so asking after every single insert — as the outbox check in
// protocol.Core and the simulator's storage accounting do — allocates nothing.
func TestSumsAfterMutationAllocs(t *testing.T) {
	leaves := counterLeaves(10)
	tb := New()
	for _, c := range leaves { // warm the free list, as above
		tb.Insert(c)
	}
	tb.Reset()
	sum := 0
	avg := testing.AllocsPerRun(20, func() {
		for _, c := range leaves {
			tb.Insert(c)
			sum += tb.Len() + tb.EncodedSize()
		}
		tb.Reset()
	})
	if avg > 0 {
		t.Errorf("Len/EncodedSize after each of %d inserts allocate: %.1f allocs per cycle, want 0",
			len(leaves), avg)
	}
	if sum == 0 {
		t.Fatal("table unexpectedly empty")
	}
}

// TestCodesAfterMutationAllocs: materialising a changed frontier allocates
// the exact-capacity result plus about one chunk per 4 KB of decisions — each
// chunk may strand less than one code at its end, hence the slack of one —
// where it used to allocate once per code and regrow the result.
func TestCodesAfterMutationAllocs(t *testing.T) {
	var part []code.Code
	for i, c := range counterLeaves(10) {
		if i%3 != 0 { // partial completion: a non-trivial frontier
			part = append(part, c)
		}
	}
	tb := New()
	rebuild := func() { // allocation-free once warm (TestInsertSteadyStateAllocs)
		tb.Reset()
		for _, c := range part {
			tb.Insert(c)
		}
	}
	rebuild()
	n, decs := tb.Len(), tb.depthSum
	if n < 500 {
		t.Fatalf("frontier of %d codes is too small to tell chunks from clones", n)
	}
	bound := 2 + float64((decs*8+4095)/4096)
	avg := testing.AllocsPerRun(20, func() {
		rebuild()
		if len(tb.Codes()) != n {
			t.Fatal("frontier changed between runs")
		}
	})
	if avg > bound {
		t.Errorf("Codes after a mutation on a %d-code, %d-decision frontier: %.1f allocs, want ≤ %.0f",
			n, decs, avg, bound)
	}
}

// TestSampleComplementAllocs: a recovery plan allocates the codes it returns
// and the slice that holds them — nothing per region walked past, nothing for
// the count (a running sum) and nothing for the visitor.
func TestSampleComplementAllocs(t *testing.T) {
	tb := New()
	for i, c := range counterLeaves(10) {
		if i%3 != 0 {
			tb.Insert(c)
		}
	}
	n := tb.Gaps()
	if n < 300 {
		t.Fatalf("complement of %d regions is too small to tell a sample from a copy", n)
	}
	r := rand.New(rand.NewSource(1))
	tb.SampleComplement(1, r.Intn) // warm the walk stacks
	for _, k := range []int{1, 4, n / 8} {
		avg := testing.AllocsPerRun(50, func() {
			if got := tb.SampleComplement(k, r.Intn); len(got) != k {
				t.Fatalf("drew %d regions, want %d", len(got), k)
			}
		})
		if avg > float64(k+1) {
			t.Errorf("SampleComplement(%d) of %d regions: %.1f allocs, want ≤ %d", k, n, avg, k+1)
		}
	}
}

// TestCachedViewAllocs: Snapshot, EncodedSize, and Len on an unchanged table
// allocate nothing — this is what lets SendTable push the same frontier to
// several peers without re-deriving it. An empty table's snapshot allocates
// nothing even the first time.
func TestCachedViewAllocs(t *testing.T) {
	tb := New()
	for i, c := range counterLeaves(8) {
		if i%3 != 0 { // partial completion: a non-trivial frontier
			tb.Insert(c)
		}
	}
	tb.Snapshot() // derive once
	avg := testing.AllocsPerRun(100, func() {
		if tb.Snapshot().Len() == 0 || tb.EncodedSize() == 0 || tb.Len() == 0 {
			t.Fatal("table unexpectedly empty")
		}
	})
	if avg > 0 {
		t.Errorf("cached Snapshot/EncodedSize/Len allocate: %.1f allocs/op, want 0", avg)
	}
	empty := New()
	if avg := testing.AllocsPerRun(100, func() { New().Snapshot(); empty.Snapshot() }); avg > 2 {
		t.Errorf("snapshots of empty tables allocate: %.1f allocs/op beyond New's 2, want 0", avg-2)
	}
}

// TestInsertAllSteadyStateAllocs: the prefix-sharing batch insert reuses the
// path stack across batches, so with a warm free list a batch is as
// allocation-free as a single insert.
func TestInsertAllSteadyStateAllocs(t *testing.T) {
	leaves := counterLeaves(10)
	tb := New()
	tb.InsertAll(leaves)
	tb.Reset()
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i+8 <= len(leaves); i += 8 {
			tb.InsertAll(leaves[i : i+8])
		}
		tb.Reset()
	})
	if avg > 0 {
		t.Errorf("steady-state InsertAll cycle allocates: %.1f allocs per %d 8-code batches, want 0",
			avg, len(leaves)/8)
	}
}

// TestInsertAllOrderedAllocs: a batch in prefix order — a whole 512-code
// frontier, as a table push delivers it — is merged where it lies: no copy
// into the sort scratch (which a table that only ever sees ordered batches
// never even allocates) and nothing else allocated either. The same batch
// reversed takes the fallback, which with a grown scratch is allocation-free
// too (slices.SortFunc, unlike the sort.Slice it replaced, allocates nothing)
// and leaves the scratch empty of codes.
func TestInsertAllOrderedAllocs(t *testing.T) {
	leaves := counterLeaves(9)
	tb := New()
	tb.InsertAll(leaves) // warm: grows the arena and the path stack
	tb.Reset()
	avg := testing.AllocsPerRun(20, func() {
		if changed, errs := tb.InsertAll(leaves); changed != len(leaves) || errs != 0 {
			t.Fatalf("InsertAll = %d, %d", changed, errs)
		}
		tb.Reset()
	})
	if avg > 0 {
		t.Errorf("ordered %d-code InsertAll allocates %.1f times, want 0", len(leaves), avg)
	}
	if tb.sortBuf != nil {
		t.Errorf("ordered batches touched the sort scratch (cap %d)", cap(tb.sortBuf))
	}

	reversed := slices.Clone(leaves)
	slices.Reverse(reversed)
	tb.InsertAll(reversed) // grows the scratch once
	tb.Reset()
	avg = testing.AllocsPerRun(20, func() {
		if changed, errs := tb.InsertAll(reversed); changed != len(leaves) || errs != 0 {
			t.Fatalf("InsertAll(reversed) = %d, %d", changed, errs)
		}
		tb.Reset()
	})
	if avg > 0 {
		t.Errorf("out-of-order %d-code InsertAll with a warm scratch allocates %.1f times, want 0", len(leaves), avg)
	}
	if cap(tb.sortBuf) < len(leaves)-1 {
		t.Fatalf("the reversed batch did not go through the sort scratch (cap %d)", cap(tb.sortBuf))
	}
	for _, c := range tb.sortBuf[:cap(tb.sortBuf)] {
		if c != nil {
			t.Fatal("the sort scratch keeps a merged batch's codes alive")
		}
	}
}
