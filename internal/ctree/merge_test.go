package ctree

// Property tests of the merge algebra: the lockstep trie merge against the
// code-list insert it replaced, Helland's idempotent, order-free, monotone
// merge contract over random tables — var-mismatched codes included — and
// the frozen snapshot a table push carries.

import (
	"bytes"
	"fmt"
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
	return codesExactlyEqual(a.Codes(), b.Codes()) && a.Len() == b.Len() && a.EncodedSize() == b.EncodedSize() &&
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
				seed, a.Codes(), a.EncodedSize(), a.Gaps(), a.NodeCount(), byList.Codes(), byList.EncodedSize(), byList.Gaps(), byList.NodeCount())
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

// reachable lists the vertices reachable from t's root, depth-first, branch 0
// first: each with its branching variable, depth and completion, and its
// children as presence bits — the trie as a reader sees it, wherever in the
// arena its vertices lie.
func reachable(t *Table) []node {
	var out []node
	var walk func(i uint32)
	walk = func(i uint32) {
		n := t.nodes[i]
		v := node{branchVar: n.branchVar, meta: n.meta &^ metaDigestOK}
		for b, c := range n.children {
			if c != 0 {
				v.children[b] = 1
			}
		}
		out = append(out, v)
		for _, c := range n.children {
			if c != 0 {
				walk(c)
			}
		}
	}
	walk(0)
	return out
}

// TestPropSnapshot: a snapshot holds its table's reachable trie, sums and
// frontier, and keeps them when the table mutates or resets; after it is
// taken, neither arena holds more free vertices than live ones, whichever way
// it was taken (a plain arena copy, or a compaction first); merging from it
// writes nothing into it; its Encode is EncodedSize bytes and decodes back to
// a table equal to it in frontier, sums, gaps, complement and digest; and it
// is cached until the table changes.
func TestPropSnapshot(t *testing.T) {
	var compacted, copied int
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 8)
		src := randTable(r, leaves)
		if r.Intn(2) == 0 { // complete a shallow region: its vertices go free
			l := leaves[r.Intn(len(leaves))]
			src.Insert(l[:min(len(l), 1+r.Intn(2))])
		}
		if r.Intn(2) == 0 {
			src.Digest() // the copy carries the side array, the compaction drops it
		}
		if free := len(src.nodes) - src.NodeCount(); free > src.NodeCount() {
			compacted++
		} else {
			copied++
		}
		want := src.Codes()
		s := src.Snapshot()
		if src.Snapshot() != s {
			t.Fatalf("seed %d: an unchanged table took a second snapshot", seed)
		}
		trie := reachable(src)
		if !slices.Equal(reachable(s), trie) || len(trie) != src.NodeCount() {
			t.Fatalf("seed %d: snapshot trie %v, table trie %v (%d vertices)", seed, reachable(s), trie, src.NodeCount())
		}
		if !sameTable(s, src) || s.Complete() != src.Complete() || s.Digest() != src.Digest() ||
			src.Digest() != scratchDigest(src, 0) {
			t.Fatalf("seed %d: snapshot %v, table %v", seed, s.Codes(), want)
		}
		for _, a := range []*Table{src, s} {
			if free := len(a.nodes) - a.NodeCount(); free > a.NodeCount() {
				t.Fatalf("seed %d: an arena of %d holds %d free vertices for %d live", seed, len(a.nodes), free, a.NodeCount())
			}
		}
		enc := s.Encode(nil)
		if len(enc) != s.EncodedSize() || !bytes.Equal(src.Encode(nil), enc) {
			t.Fatalf("seed %d: snapshot encodes to %x (EncodedSize %d), its table to %x", seed, enc, s.EncodedSize(), src.Encode(nil))
		}
		checkDecoded(t, s, enc, fmt.Sprintf("seed %d snapshot", seed))

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
	if compacted < 10 || copied < 10 {
		t.Fatalf("%d snapshots compacted first, %d copied the arena as it was: the generator no longer covers both", compacted, copied)
	}
}

// TestSnapshotEmpty: every empty table shares one snapshot, which encodes as
// a single zero byte — no vertex — and merges as nothing.
func TestSnapshotEmpty(t *testing.T) {
	a, b := New(), New()
	if a.Snapshot() != b.Snapshot() || a.Snapshot().Snapshot() != a.Snapshot() {
		t.Fatal("empty tables do not share their snapshot")
	}
	if enc := a.Snapshot().Encode(nil); !bytes.Equal(enc, []byte{0}) {
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
	want := s.Encode(nil)
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

// pushPair returns a receiver and the snapshot a peer pushes to it, shaped
// like a sim-table1 table push: 24 workers each part way through a
// depth-first sweep of their own slice of a depth-14 tree, so each side holds
// a few hundred live vertices and a frontier of a couple of hundred codes.
// The sender is ahead of the receiver on a third of the slices and level with
// it on the rest, so most of the push is already known. Deterministic.
func pushPair() (recv, push *Table) {
	leaves := counterLeaves(14)
	r := rand.New(rand.NewSource(7))
	recv, send := New(), New()
	const workers = 24
	span := len(leaves) / workers
	for w := 0; w < workers; w++ {
		at := w * span
		done := span/4 + r.Intn(span/2)
		ahead := 0
		if w%3 == 0 {
			ahead = 1 + r.Intn(span/8)
		}
		for i, c := range leaves[at : at+done+ahead] {
			send.Insert(c)
			if i < done {
				recv.Insert(c)
			}
		}
	}
	return recv, send.Snapshot()
}

// BenchmarkSnapshot times taking the snapshot a table push carries, from a
// table whose contractions left free vertices in its arena. The cache is
// dropped before each call, as a completion between two pushes drops it.
func BenchmarkSnapshot(b *testing.B) {
	recv, _ := pushPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recv.invalidate()
		benchSink += recv.Snapshot().Len()
	}
}

// BenchmarkMergePush times a receiver merging a pushed snapshot it mostly
// holds already. Each merge goes into a fresh clone of the receiver, cloned
// in batches with the timer stopped.
func BenchmarkMergePush(b *testing.B) {
	recv, push := pushPair()
	batch := make([]*Table, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(batch) == 0 {
			b.StopTimer()
			for j := range batch {
				batch[j] = recv.Clone()
			}
			b.StartTimer()
		}
		ch, _ := batch[i%len(batch)].Merge(push)
		benchSink += ch
	}
}

// BenchmarkTableEncode times encoding the table a push carries (pushPair's
// snapshot) into a reused buffer; wire-B/op is the encoding's length.
func BenchmarkTableEncode(b *testing.B) {
	_, push := pushPair()
	buf := push.Encode(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = push.Encode(buf[:0])
	}
	b.ReportMetric(float64(len(buf)), "wire-B/op")
}

// BenchmarkTableDecode times rebuilding that table from its encoding, as a
// receiver of the push does.
func BenchmarkTableDecode(b *testing.B) {
	_, push := pushPair()
	buf := push.Encode(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := Decode(buf)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += t.Len()
	}
	b.ReportMetric(float64(len(buf)), "wire-B/op")
}
