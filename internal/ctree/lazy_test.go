package ctree

import (
	"math/rand"
	"testing"
)

// A table's walk scratch and digest side array wait behind one pointer until
// a walk needs them. These tests pin who allocates them, that a merge into a
// shallow table never does, and that a table reused after Reset — as the
// protocol core's table pool reuses them, scratch and all — behaves exactly
// like a new one.

// TestLazyScratchRootMerge: a termination report — the complete table —
// merging into an empty table, or into one holding a few shallow codes, as
// at an idle process of a big run, allocates nothing and leaves the table
// without scratch.
func TestLazyScratchRootMerge(t *testing.T) {
	few := frozen(mk(1, 0, 2, 1), mk(1, 1), mk(1, 0, 2, 0, 3, 1))
	for _, c := range []struct {
		name string
		pre  *Table
	}{{"empty", Empty()}, {"three codes", few}} {
		const runs = 50
		tabs := make([]*Table, runs+1) // AllocsPerRun calls once more to warm up
		for i := range tabs {
			tabs[i] = New()
			tabs[i].Merge(c.pre)
		}
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if ch, errs := tabs[i].Merge(Done()); ch != 1 || errs != 0 {
				t.Fatalf("%s: Merge(Done()) = %d, %d; want 1, 0", c.name, ch, errs)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: a root report merge allocates %.1f times, want 0", c.name, allocs)
		}
		for _, tb := range tabs {
			if !tb.Complete() || tb.NodeCount() != 1 || tb.sc != nil {
				t.Fatalf("%s: after the merge Complete %v, %d vertices, scratch %v; want true, 1, none",
					c.name, tb.Complete(), tb.NodeCount(), tb.sc != nil)
			}
		}
	}
}

// TestLazyScratchAllocatedByWalks: merging, the sums and the frontier walks
// leave a table without scratch; an insert, a complement walk, a digest and a
// merge below a prefix each allocate it.
func TestLazyScratchAllocatedByWalks(t *testing.T) {
	src := frozen(mk(1, 0, 2, 1), mk(1, 1))
	tb := New()
	tb.Merge(src)
	tb.Codes()
	tb.Encode(nil)
	tb.Snapshot()
	_ = tb.Len() + tb.EncodedSize() + tb.Gaps()
	if tb.sc != nil {
		t.Fatal("merging and reading a table allocated its scratch")
	}
	for _, walk := range []struct {
		name string
		do   func(*Table)
	}{
		{"Insert", func(tb *Table) { tb.Insert(mk(1, 0, 2, 0)) }},
		{"Complement", func(tb *Table) { tb.Complement(0) }},
		{"Digest", func(tb *Table) { tb.Digest() }},
		{"MergeAt", func(tb *Table) { tb.MergeAt(mk(1, 0, 2, 0), Done()) }},
	} {
		tb := New()
		tb.Merge(src)
		walk.do(tb)
		if tb.sc == nil {
			t.Errorf("%s left the table without scratch", walk.name)
		}
	}
}

// TestLazyDigestSideArray: a table that only ever merged builds its digest
// side array on the first digest, and the digests match the recompute; a
// clone copies the side array of a digested table, and a clone of one
// without scratch has none.
func TestLazyDigestSideArray(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 8)
		src := New()
		for i := 0; i < len(leaves)/2; i++ {
			src.Insert(leaves[r.Intn(len(leaves))])
		}
		tb := New()
		tb.Merge(src.Snapshot())
		if c := tb.Clone(); c.sc != nil {
			t.Fatalf("seed %d: a clone of a table without scratch has scratch", seed)
		}
		if tb.Digest() != scratchDigest(tb, 0) || tb.Digest() != src.Digest() {
			t.Fatalf("seed %d: lazily built digest %#x, recompute %#x, source %#x",
				seed, tb.Digest(), scratchDigest(tb, 0), src.Digest())
		}
		c := tb.Clone()
		if c.sc == nil || len(c.sc.digests) != len(tb.sc.digests) || &c.sc.digests[0] == &tb.sc.digests[0] {
			t.Fatalf("seed %d: the clone does not carry its own copy of the digests", seed)
		}
		if c.Digest() != tb.Digest() {
			t.Fatalf("seed %d: clone digest %#x, original %#x", seed, c.Digest(), tb.Digest())
		}
	}
}

// TestLazyScratchSurvivesReset: Reset keeps the scratch, digests' capacity
// included, and a table reused after Reset — stale path, stacks and digest
// values in its scratch — follows a fresh table through any mix of inserts,
// merges, complement walks and digests.
func TestLazyScratchSurvivesReset(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 8)
		used := New()
		for i := 0; i < len(leaves); i++ {
			used.Insert(leaves[r.Intn(len(leaves))])
			if i%5 == 0 {
				used.Digest()
				used.Complement(3)
			}
		}
		sc, dcap := used.sc, cap(used.sc.digests)
		used.Reset()
		if used.sc != sc || cap(used.sc.digests) != dcap || len(used.sc.digests) != 0 {
			t.Fatalf("seed %d: Reset dropped the scratch or the digests' capacity", seed)
		}
		fresh := New()
		for step := 0; step < 2*len(leaves); step++ {
			c := leaves[r.Intn(len(leaves))]
			switch r.Intn(4) {
			case 0:
				used.Insert(c)
				fresh.Insert(c)
			case 1:
				other := frozen(c)
				used.Merge(other)
				fresh.Merge(other)
			case 2:
				if !codesExactlyEqual(used.Complement(0), fresh.Complement(0)) {
					t.Fatalf("seed %d step %d: complements differ", seed, step)
				}
			case 3:
				if used.Digest() != fresh.Digest() || used.Digest() != scratchDigest(used, 0) {
					t.Fatalf("seed %d step %d: reused digest %#x, fresh %#x", seed, step, used.Digest(), fresh.Digest())
				}
			}
			if !codesExactlyEqual(used.Codes(), fresh.Codes()) || used.EncodedSize() != fresh.EncodedSize() {
				t.Fatalf("seed %d step %d: reused table holds %v, fresh %v", seed, step, used.Codes(), fresh.Codes())
			}
		}
	}
}
