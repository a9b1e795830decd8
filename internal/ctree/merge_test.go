package ctree

// Property tests of the merge algebra: the lockstep trie merge against the
// code-list insert it replaced, Helland's idempotent, order-free, monotone
// merge contract over random tables — var-mismatched codes included — and
// the frozen snapshot a table push carries.

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gossipbnb/internal/code"
)

// randTable fills a table with a random subset of leaves, after — one time in
// three — a corrupt code: a leaf with one branching variable moved, which the
// empty table adopts, so the honest leaves below that vertex then fail to
// insert, and any table that branched there honestly mismatches this one.
func randTable(r *rand.Rand, leaves []code.Code) *Table {
	tb := New()
	if r.Intn(3) == 0 {
		c := leaves[r.Intn(len(leaves))].Clone()
		if len(c) > 0 {
			c[r.Intn(len(c))].Var += 1000
			tb.Insert(c)
		}
	}
	for _, c := range leaves {
		if r.Intn(3) == 0 {
			tb.Insert(c)
		}
	}
	return tb
}

// merged returns a fresh clone of a with b merged in, and the counts.
func merged(a, b *Table) (*Table, int, int) {
	m := a.Clone()
	ch, er := m.Merge(b)
	return m, ch, er
}

// sameTable reports whether two tables hold the same frontier and agree on
// every figure kept beside it.
func sameTable(a, b *Table) bool {
	return codesExactlyEqual(a.Codes(), b.Codes()) && a.Len() == b.Len() && a.WireSize() == b.WireSize() &&
		a.Decisions() == b.Decisions() && a.Gaps() == b.Gaps() && a.NodeCount() == b.NodeCount()
}

// TestPropMergeMatchesInsertAll: a.Merge(b) leaves exactly the table
// a.InsertAll(b.Codes()) leaves — frontier, sums, complement and digest — with
// the same changed and error counts, so a fortiori zero in the same cases.
func TestPropMergeMatchesInsertAll(t *testing.T) {
	var changedCases, errCases int
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 8)
		a, b := randTable(r, leaves), randTable(r, leaves)
		if r.Intn(2) == 0 {
			a.Digest() // the merge must then keep the digests along its paths current
		}
		byList := a.Clone()
		ch1, er1 := byList.InsertAll(b.Codes())
		ch2, er2 := a.Merge(b)
		if ch1 != ch2 || er1 != er2 {
			t.Fatalf("seed %d: Merge = (%d, %d), InsertAll(Codes) = (%d, %d)", seed, ch2, er2, ch1, er1)
		}
		if !sameTable(a, byList) {
			t.Fatalf("seed %d: Merge leaves %v (%d B, %d gaps, %d vertices), InsertAll %v (%d B, %d gaps, %d vertices)",
				seed, a.Codes(), a.WireSize(), a.Gaps(), a.NodeCount(), byList.Codes(), byList.WireSize(), byList.Gaps(), byList.NodeCount())
		}
		if !codesExactlyEqual(a.Complement(0), byList.Complement(0)) || a.Gaps() != len(a.Complement(0)) {
			t.Fatalf("seed %d: complement %v, by list %v, Gaps %d", seed, a.Complement(0), byList.Complement(0), a.Gaps())
		}
		if a.Digest() != scratchDigest(a, 0) {
			t.Fatalf("seed %d: a digest went stale across the merge", seed)
		}
		checkSums(t, a, "after Merge")
		if ch2 > 0 {
			changedCases++
		}
		if er2 > 0 {
			errCases++
		}
	}
	if changedCases < 100 || errCases < 20 {
		t.Fatalf("only %d merges changed the table and %d met a var mismatch: the generator no longer covers both", changedCases, errCases)
	}
}

// TestPropMergeAlgebra: merge is idempotent, commutative and associative, and
// monotone — every code of the receiver stays contained and every code of the
// other input is contained unless it branches on another variable, which is
// exactly what errs counts. Commutativity and associativity hold where the
// inputs agree on branching variables (the deterministic decomposition the
// table assumes); where they do not, the first table to branch a vertex keeps
// its variable, and both orders report the mismatch.
func TestPropMergeAlgebra(t *testing.T) {
	var agreeing, conflicting int
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 8)
		a, b, c := randTable(r, leaves), randTable(r, leaves), randTable(r, leaves)

		ab, ch, errAB := merged(a, b)
		if again, ch2, _ := merged(ab, b); ch2 != 0 || !sameTable(again, ab) {
			t.Fatalf("seed %d: merging b twice changed the table (%d)", seed, ch2)
		}
		if again, ch2, er2 := merged(ab, ab.Snapshot()); ch2 != 0 || er2 != 0 || !sameTable(again, ab) {
			t.Fatalf("seed %d: merging a table's own snapshot = (%d, %d)", seed, ch2, er2)
		}
		if ch == 0 && !sameTable(ab, a) {
			t.Fatalf("seed %d: a merge that changed nothing changed the table", seed)
		}

		for _, x := range a.Codes() {
			if !ab.Contains(x) {
				t.Fatalf("seed %d: a's %v lost by the merge", seed, x)
			}
		}
		lost := 0
		for _, x := range b.Codes() {
			if !ab.Contains(x) {
				lost++
			}
		}
		if lost != errAB {
			t.Fatalf("seed %d: %d of b's codes not contained after the merge, %d mismatches reported", seed, lost, errAB)
		}

		ba, _, errBA := merged(b, a)
		if (errAB == 0) != (errBA == 0) {
			t.Fatalf("seed %d: a mismatch seen in one order only (%d, %d)", seed, errAB, errBA)
		}
		abC, _, e1 := merged(ab, c)
		bc, _, e2 := merged(b, c)
		aBC, _, e3 := merged(a, bc)
		if errAB+errBA+e1+e2+e3 > 0 {
			conflicting++
			continue
		}
		agreeing++
		if !sameTable(ab, ba) {
			t.Fatalf("seed %d: a∪b = %v, b∪a = %v", seed, ab.Codes(), ba.Codes())
		}
		if !sameTable(abC, aBC) {
			t.Fatalf("seed %d: (a∪b)∪c = %v, a∪(b∪c) = %v", seed, abC.Codes(), aBC.Codes())
		}
	}
	if agreeing < 100 || conflicting < 20 {
		t.Fatalf("%d agreeing and %d conflicting triples: the generator no longer covers both", agreeing, conflicting)
	}
}

// TestPropSnapshot: a snapshot holds its table's frontier and keeps it when
// the table mutates or resets; merging from it writes nothing into it; its
// Encode is code.AppendAll of its frontier byte for byte and decodes back to
// it; and it is cached until the table changes.
func TestPropSnapshot(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 8)
		src := randTable(r, leaves)
		want := src.Codes()
		s := src.Snapshot()
		if src.Snapshot() != s {
			t.Fatalf("seed %d: an unchanged table took a second snapshot", seed)
		}
		if !sameTable(s, src) || s.Complete() != src.Complete() || s.Digest() != src.Digest() {
			t.Fatalf("seed %d: snapshot %v, table %v", seed, s.Codes(), want)
		}
		if s.NodeCount() != len(s.nodes) {
			t.Fatalf("seed %d: snapshot arena of %d for %d vertices", seed, len(s.nodes), s.NodeCount())
		}
		enc := s.Encode(nil)
		if !bytes.Equal(enc, code.AppendAll(nil, want)) || len(enc) != s.WireSize() {
			t.Fatalf("seed %d: Encode %x, AppendAll of the frontier %x", seed, enc, code.AppendAll(nil, want))
		}
		if back, err := Decode(enc); err != nil || !codesExactlyEqual(back.Codes(), want) {
			t.Fatalf("seed %d: Decode(Encode) = %v, %v; want %v", seed, back, err, want)
		}

		arena := slices.Clone(s.nodes)
		dst := randTable(r, leaves)
		dst.Merge(s)
		for _, c := range leaves[:r.Intn(len(leaves))] {
			src.Insert(c)
		}
		if !slices.Equal(s.nodes, arena) || !bytes.Equal(s.Encode(nil), enc) {
			t.Fatalf("seed %d: a merge from the snapshot or a mutation of its table wrote into it", seed)
		}
		if changed := !codesExactlyEqual(src.Codes(), want); changed == (src.Snapshot() == s) {
			t.Fatalf("seed %d: table changed %v, yet the cached snapshot was kept %v", seed, changed, !changed)
		}
		src.Reset()
		if !codesExactlyEqual(s.Codes(), want) {
			t.Fatalf("seed %d: snapshot after Reset holds %v, want %v", seed, s.Codes(), want)
		}
	}
}

// TestSnapshotEmpty: every empty table shares one snapshot, which encodes as
// the empty batch and merges as nothing.
func TestSnapshotEmpty(t *testing.T) {
	a, b := New(), New()
	if a.Snapshot() != b.Snapshot() || a.Snapshot().Snapshot() != a.Snapshot() {
		t.Fatal("empty tables do not share their snapshot")
	}
	if enc := a.Snapshot().Encode(nil); !bytes.Equal(enc, code.AppendAll(nil, nil)) {
		t.Fatalf("empty snapshot encodes as %x", enc)
	}
	b.Insert(mk(1, 0))
	if ch, er := b.Merge(a.Snapshot()); ch != 0 || er != 0 || b.Len() != 1 {
		t.Fatalf("merging the empty snapshot = (%d, %d)", ch, er)
	}
	if ch, er := a.Merge(b.Snapshot()); ch != 1 || er != 0 || !a.Contains(mk(1, 0)) {
		t.Fatalf("merging into an empty table = (%d, %d)", ch, er)
	}
}

// TestSnapshotSharedConcurrently: one snapshot merged into several tables and
// encoded, from as many goroutines at once, while its source table mutates —
// what a table push sent to several peers of the live runtime or the
// sharded simulator does. Under -race any write into the snapshot fails.
func TestSnapshotSharedConcurrently(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	leaves := randTree(r, 10)
	src := New()
	for _, c := range leaves {
		if r.Intn(2) == 0 {
			src.Insert(c)
		}
	}
	s := src.Snapshot()
	want := code.AppendAll(nil, s.Codes())
	var wg sync.WaitGroup
	results := make([]*Table, 4)
	for i := range results {
		dst := New()
		for _, c := range leaves[i*len(leaves)/8 : (i+1)*len(leaves)/8] {
			dst.Insert(c)
		}
		results[i] = dst
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				dst.Merge(s)
				if !bytes.Equal(s.Encode(nil), want) {
					t.Error("a concurrent encode of the shared snapshot differs")
					return
				}
			}
		}()
	}
	for _, c := range leaves {
		src.Insert(c)
	}
	wg.Wait()
	for i, dst := range results {
		for _, c := range s.Codes() {
			if !dst.Contains(c) {
				t.Fatalf("reader %d: %v missing after the merge", i, c)
			}
		}
	}
}
