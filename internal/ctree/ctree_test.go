package ctree

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"gossipbnb/internal/code"
)

func mk(pairs ...uint32) code.Code {
	c := code.Root()
	for i := 0; i < len(pairs); i += 2 {
		c = c.Child(pairs[i], uint8(pairs[i+1]))
	}
	return c
}

func TestEmptyTable(t *testing.T) {
	tb := New()
	if tb.Complete() {
		t.Error("empty table reports complete")
	}
	if tb.Len() != 0 {
		t.Errorf("Len = %d, want 0", tb.Len())
	}
	comp := tb.Complement(0)
	if len(comp) != 1 || !comp[0].IsRoot() {
		t.Errorf("Complement of empty table = %v, want [()]", comp)
	}
}

func TestInsertAndContains(t *testing.T) {
	tb := New()
	c := mk(1, 0, 2, 1)
	changed, err := tb.Insert(c)
	if err != nil || !changed {
		t.Fatalf("Insert = %v, %v", changed, err)
	}
	if !tb.Contains(c) {
		t.Error("Contains(inserted) = false")
	}
	if tb.Contains(mk(1, 0)) {
		t.Error("Contains(parent of inserted) = true")
	}
	if !tb.Contains(mk(1, 0, 2, 1, 7, 0)) {
		t.Error("Contains(descendant of inserted) = false; completion of a node implies its subtree")
	}
	// Re-insert: no change.
	changed, err = tb.Insert(c)
	if err != nil || changed {
		t.Errorf("duplicate Insert = %v, %v; want false, nil", changed, err)
	}
}

func TestSiblingContraction(t *testing.T) {
	tb := New()
	tb.Insert(mk(1, 0, 2, 0))
	if tb.Contains(mk(1, 0)) {
		t.Fatal("half pair should not complete parent")
	}
	tb.Insert(mk(1, 0, 2, 1))
	if !tb.Contains(mk(1, 0)) {
		t.Error("sibling pair did not contract to parent")
	}
	cs := tb.Codes()
	if len(cs) != 1 || !cs[0].Equal(mk(1, 0)) {
		t.Errorf("Codes after contraction = %v, want [(<x1,0>)]", cs)
	}
}

func TestRecursiveContractionToRoot(t *testing.T) {
	// Paper §5.4: successive compressions reaching the root code detect
	// termination. Build a depth-3 complete tree and insert all 8 leaves.
	tb := New()
	leaves := []code.Code{}
	for i := 0; i < 8; i++ {
		c := mk(1, uint32(i>>2&1), 2, uint32(i>>1&1), 3, uint32(i&1))
		leaves = append(leaves, c)
	}
	for i, c := range leaves {
		if tb.Complete() {
			t.Fatalf("complete before all leaves inserted (after %d)", i)
		}
		tb.Insert(c)
	}
	if !tb.Complete() {
		t.Error("all leaves inserted but root not complete")
	}
	cs := tb.Codes()
	if len(cs) != 1 || !cs[0].IsRoot() {
		t.Errorf("Codes = %v, want [()]", cs)
	}
	if len(tb.Complement(0)) != 0 {
		t.Errorf("Complement of complete table = %v, want empty", tb.Complement(0))
	}
}

func TestHeterogeneousBranchVars(t *testing.T) {
	// Figure 1: the left subtree of the root branches on x2, the right on x3;
	// deeper still on x5 / x4. Contraction must respect per-node variables.
	tb := New()
	tb.Insert(mk(1, 0, 2, 0))
	tb.Insert(mk(1, 0, 2, 1, 5, 0))
	tb.Insert(mk(1, 0, 2, 1, 5, 1))
	tb.Insert(mk(1, 1, 3, 0))
	tb.Insert(mk(1, 1, 3, 1, 4, 0))
	tb.Insert(mk(1, 1, 3, 1, 4, 1))
	if !tb.Complete() {
		t.Error("Figure 1 tree fully inserted but not complete")
	}
}

func TestAncestorSubsumesDescendants(t *testing.T) {
	tb := New()
	tb.Insert(mk(1, 0, 2, 0, 3, 1))
	tb.Insert(mk(1, 0)) // ancestor arrives later
	cs := tb.Codes()
	if len(cs) != 1 || !cs[0].Equal(mk(1, 0)) {
		t.Errorf("Codes = %v, want only the ancestor", cs)
	}
	// Descendant arriving after ancestor: no change.
	changed, err := tb.Insert(mk(1, 0, 2, 1))
	if err != nil || changed {
		t.Errorf("Insert(subsumed) = %v, %v; want false, nil", changed, err)
	}
}

func TestVarMismatch(t *testing.T) {
	tb := New()
	if _, err := tb.Insert(mk(1, 0, 2, 0)); err != nil {
		t.Fatal(err)
	}
	_, err := tb.Insert(mk(1, 0, 9, 1)) // same node branched on x9 instead of x2
	if err == nil {
		t.Fatal("var mismatch not detected")
	}
	if _, ok := err.(*VarMismatchError); !ok {
		t.Errorf("error type = %T, want *VarMismatchError", err)
	}
}

func TestComplementHalfTree(t *testing.T) {
	tb := New()
	tb.Insert(mk(1, 0))
	comp := tb.Complement(0)
	if len(comp) != 1 || !comp[0].Equal(mk(1, 1)) {
		t.Errorf("Complement = %v, want [(<x1,1>)]", comp)
	}
}

func TestComplementDeep(t *testing.T) {
	tb := New()
	tb.Insert(mk(1, 0, 2, 1, 5, 0))
	comp := tb.Complement(0)
	// Expected missing regions: (<x1,0>,<x2,0>), (<x1,0>,<x2,1>,<x5,1>), (<x1,1>)
	want := map[string]bool{
		mk(1, 0, 2, 0).Key():       true,
		mk(1, 0, 2, 1, 5, 1).Key(): true,
		mk(1, 1).Key():             true,
	}
	if len(comp) != len(want) {
		t.Fatalf("Complement = %v, want 3 regions", comp)
	}
	for _, c := range comp {
		if !want[c.Key()] {
			t.Errorf("unexpected complement entry %v", c)
		}
	}
}

func TestComplementMax(t *testing.T) {
	tb := New()
	tb.Insert(mk(1, 0, 2, 1, 5, 0))
	if got := tb.Complement(1); len(got) != 1 {
		t.Errorf("Complement(1) returned %d codes", len(got))
	}
	if got := tb.Complement(2); len(got) != 2 {
		t.Errorf("Complement(2) returned %d codes", len(got))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tb := New()
	tb.Insert(mk(1, 0, 2, 1, 5, 0))
	tb.Insert(mk(1, 1, 3, 0))
	buf := tb.Encode(nil)
	if len(buf) != tb.EncodedSize() {
		t.Errorf("len(Encode) = %d, EncodedSize = %d", len(buf), tb.EncodedSize())
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCodes(got.Codes(), tb.Codes()) {
		t.Errorf("round trip: %v != %v", got.Codes(), tb.Codes())
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	tb := New()
	tb.Insert(mk(1, 0, 2, 1, 5, 0))
	tb.Insert(mk(1, 1, 3, 0))
	buf := tb.Encode(nil)
	// The exact encoding round-trips…
	if _, err := Decode(buf); err != nil {
		t.Fatalf("clean round trip failed: %v", err)
	}
	// …but any suffix after the last vertex's variable is rejected, whatever
	// it holds — a second table, zeros, or garbage.
	for _, tail := range [][]byte{{0}, {0xff}, tb.Encode(nil), {1, 2, 3, 4}} {
		if _, err := Decode(append(append([]byte(nil), buf...), tail...)); err == nil {
			t.Errorf("Decode accepted %d trailing bytes % x", len(tail), tail)
		}
	}
	// An empty table's encoding also round-trips exactly.
	empty := New().Encode(nil)
	if got, err := Decode(empty); err != nil || got.Len() != 0 {
		t.Errorf("empty round trip: %v, %v", got, err)
	}
}

// TestDecodeHardening: Decode accepts exactly the canonical encoding of a
// contracted trie. Each input below is a near miss of a valid one.
func TestDecodeHardening(t *testing.T) {
	for _, c := range []struct {
		name string
		buf  []byte
	}{
		{"empty input", nil},
		{"padded vertex count", []byte{0x80, 0}},
		{"more vertices than the tag bytes hold", []byte{9, 0, 0}},
		{"the empty table with a trailing byte", []byte{0, 0}},
		{"a second tree after a complete root", []byte{2, 0x00}},
		{"a tree that closes before the count", []byte{3, 0x01, 5}},
		{"a tree the count leaves open", []byte{2, 0x03, 5}},
		{"an inner vertex with two complete children", []byte{3, 0x03, 5}},
		{"a deeper pair of complete children", []byte{4, 0x0d, 5, 6}},
		{"nonzero padding bits", []byte{1, 0x04}},
		{"a missing variable", []byte{2, 0x01}},
		{"a variable cut short", []byte{2, 0x01, 0x85}},
		{"a padded variable", []byte{2, 0x01, 0x85, 0x00}},
		{"a variable past 32 bits", []byte{2, 0x01, 0x80, 0x80, 0x80, 0x80, 0x10}},
		{"a trailing byte", []byte{2, 0x01, 5, 0}},
	} {
		if _, err := Decode(c.buf); err == nil {
			t.Errorf("%s: Decode(% x) accepted it", c.name, c.buf)
		}
	}
	// The valid inputs the near misses were made from.
	for _, buf := range [][]byte{{0}, {1, 0}, {2, 0x01, 5}, {3, 0x09, 5, 6}, {4, 0x13, 5, 7}, {2, 0x02, 0x80, 0x80, 0x80, 0x80, 0x0f}} {
		tb, err := Decode(buf)
		if err != nil {
			t.Errorf("Decode(% x): %v", buf, err)
			continue
		}
		if re := tb.Encode(nil); !bytes.Equal(re, buf) {
			t.Errorf("Decode(% x) re-encodes as % x", buf, re)
		}
	}
}

func TestReset(t *testing.T) {
	tb := New()
	tb.Insert(mk(1, 0, 2, 1))
	tb.Insert(mk(1, 1))
	tb.Reset()
	if tb.Len() != 0 || tb.Complete() || tb.NodeCount() != 1 {
		t.Fatalf("after Reset: Len=%d Complete=%v NodeCount=%d", tb.Len(), tb.Complete(), tb.NodeCount())
	}
	comp := tb.Complement(0)
	if len(comp) != 1 || !comp[0].IsRoot() {
		t.Errorf("Complement after Reset = %v, want [()]", comp)
	}
	// The table is fully usable again, and codes handed out before the reset
	// survive it untouched.
	tb.Insert(mk(1, 0))
	before := tb.Codes()
	tb.Reset()
	tb.Insert(mk(1, 1))
	if len(before) != 1 || !before[0].Equal(mk(1, 0)) {
		t.Errorf("codes from before Reset were clobbered: %v", before)
	}
	if cs := tb.Codes(); len(cs) != 1 || !cs[0].Equal(mk(1, 1)) {
		t.Errorf("Codes after Reset+Insert = %v", cs)
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	a.Insert(mk(1, 0, 2, 0))
	b.Insert(mk(1, 0, 2, 1))
	b.Insert(mk(1, 1))
	changed, errs := a.Merge(b)
	if errs != 0 {
		t.Fatalf("Merge errs = %d", errs)
	}
	if changed != 2 {
		t.Errorf("Merge changed = %d, want 2", changed)
	}
	if !a.Complete() {
		t.Error("merged table should contract to root")
	}
}

func TestClone(t *testing.T) {
	a := New()
	a.Insert(mk(1, 0, 2, 0))
	b := a.Clone()
	b.Insert(mk(1, 0, 2, 1))
	if a.Contains(mk(1, 0)) {
		t.Error("mutation of clone leaked into original")
	}
	if !b.Contains(mk(1, 0)) {
		t.Error("clone missing inserted data")
	}
}

func TestNodeCountPrunes(t *testing.T) {
	tb := New()
	for i := 0; i < 8; i++ {
		tb.Insert(mk(1, uint32(i>>2&1), 2, uint32(i>>1&1), 3, uint32(i&1)))
	}
	if !tb.Complete() {
		t.Fatal("not complete")
	}
	if tb.NodeCount() != 1 {
		t.Errorf("NodeCount after full contraction = %d, want 1 (root only)", tb.NodeCount())
	}
}

// --- randomized / property tests -------------------------------------------

// randTree generates a random binary tree of nLeaves leaves and returns its
// leaf codes. Interior nodes get distinct branch variables.
func randTree(r *rand.Rand, maxDepth int) []code.Code {
	var leaves []code.Code
	varSeq := uint32(1)
	var build func(prefix code.Code, depth int)
	build = func(prefix code.Code, depth int) {
		if depth >= maxDepth || r.Intn(3) == 0 {
			leaves = append(leaves, prefix)
			return
		}
		v := varSeq
		varSeq++
		build(prefix.Child(v, 0), depth+1)
		build(prefix.Child(v, 1), depth+1)
	}
	build(code.Root(), 0)
	return leaves
}

func TestPropAllLeavesAnyOrderTerminates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 8)
		r.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
		tb := New()
		for _, c := range leaves {
			if _, err := tb.Insert(c); err != nil {
				return false
			}
		}
		return tb.Complete() && tb.NodeCount() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropComplementPartition(t *testing.T) {
	// For any partial insertion, every leaf is covered by exactly one of
	// {table frontier, complement}.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 7)
		tb := New()
		inserted := map[string]bool{}
		for _, c := range leaves {
			if r.Intn(2) == 0 {
				tb.Insert(c)
				inserted[c.Key()] = true
			}
		}
		comp := tb.Complement(0)
		for _, leaf := range leaves {
			inTable := tb.Contains(leaf)
			inComp := false
			for _, cc := range comp {
				if cc.Equal(leaf) || cc.IsAncestorOf(leaf) {
					inComp = true
					break
				}
			}
			if inTable == inComp {
				return false // must be exactly one
			}
			if inserted[leaf.Key()] != inTable {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropInsertOrderIrrelevant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 7)
		subset := leaves[:r.Intn(len(leaves)+1)]
		a := New()
		for _, c := range subset {
			a.Insert(c)
		}
		shuffled := append([]code.Code(nil), subset...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b := New()
		for _, c := range shuffled {
			b.Insert(c)
		}
		return sameCodes(a.Codes(), b.Codes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropListTableAgreesWithTrie(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 6)
		r.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
		trie, list := New(), NewList()
		for _, c := range leaves[:r.Intn(len(leaves)+1)] {
			trie.Insert(c)
			list.Insert(c)
		}
		if trie.Complete() != list.Complete() {
			return false
		}
		// The list's size is its own batch, in its own order: never below the
		// prefix-ordered trie frontier's, which shares the most there is.
		if w := list.WireSize(); w != len(code.AppendAll(nil, list.Codes())) || w < trie.WireSize() {
			return false
		}
		return sameCodes(trie.Codes(), list.Codes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropMergeCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 6)
		a1, b1 := New(), New()
		for _, c := range leaves {
			switch r.Intn(3) {
			case 0:
				a1.Insert(c)
			case 1:
				b1.Insert(c)
			}
		}
		ab := a1.Clone()
		ab.Merge(b1)
		ba := b1.Clone()
		ba.Merge(a1)
		return sameCodes(ab.Codes(), ba.Codes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func sameCodes(a, b []code.Code) bool {
	if len(a) != len(b) {
		return false
	}
	am := map[string]bool{}
	for _, c := range a {
		am[c.Key()] = true
	}
	for _, c := range b {
		if !am[c.Key()] {
			return false
		}
	}
	return true
}

func TestListTableBasics(t *testing.T) {
	l := NewList()
	if l.Complete() {
		t.Error("empty list complete")
	}
	l.Insert(mk(1, 0))
	l.Insert(mk(1, 1))
	if !l.Complete() {
		t.Error("sibling pair did not contract to root")
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d, want 1", l.Len())
	}
}

func TestListTableSubsumption(t *testing.T) {
	l := NewList()
	l.Insert(mk(1, 0, 2, 0))
	l.Insert(mk(1, 0, 2, 1, 5, 0))
	l.Insert(mk(1, 0)) // subsumes both
	cs := l.Codes()
	if len(cs) != 1 || !cs[0].Equal(mk(1, 0)) {
		t.Errorf("Codes = %v", cs)
	}
	if !l.Contains(mk(1, 0, 2, 0)) {
		t.Error("Contains(descendant) = false")
	}
}

// The two representation benches below share one workload so their numbers
// are directly comparable (the DESIGN.md table-representation ablation).
func repBenchLeaves() []code.Code {
	r := rand.New(rand.NewSource(1))
	return randTree(r, 11)
}

func BenchmarkTrieInsertContract(b *testing.B) {
	leaves := repBenchLeaves()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := New()
		for _, c := range leaves {
			tb.Insert(c)
		}
		if !tb.Complete() {
			b.Fatal("not complete")
		}
	}
}

// The two benches below replay the 2048 leaves of a depth-11 tree in shuffled
// order — so the frontier grows to hundreds of codes before it contracts —
// and ask for a derived view straight after every mutation, the way SendTable
// and the simulator's storage accounting do.
func shuffledBenchLeaves() []code.Code {
	leaves := counterLeaves(11)
	rand.New(rand.NewSource(2)).Shuffle(len(leaves), func(i, j int) {
		leaves[i], leaves[j] = leaves[j], leaves[i]
	})
	return leaves
}

var benchSink int

func BenchmarkCodesAfterMutation(b *testing.B) {
	leaves := shuffledBenchLeaves()
	tb := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(leaves) == 0 {
			tb.Reset()
		}
		tb.Insert(leaves[i%len(leaves)])
		benchSink += len(tb.Codes())
	}
}

func BenchmarkWireSizeAfterMutation(b *testing.B) {
	leaves := shuffledBenchLeaves()
	tb := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(leaves) == 0 {
			tb.Reset()
		}
		tb.Insert(leaves[i%len(leaves)])
		benchSink += tb.WireSize()
	}
}

func BenchmarkListInsertContract(b *testing.B) {
	leaves := repBenchLeaves()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := NewList()
		for _, c := range leaves {
			tb.Insert(c)
		}
		if !tb.Complete() {
			b.Fatal("not complete")
		}
	}
}

// TestSampleComplementEnds: an empty table's complement is the root alone, a
// complete table's is empty — and nothing is drawn from an empty complement,
// not even a random number.
func TestSampleComplementEnds(t *testing.T) {
	tb := New()
	if got := tb.SampleComplement(4, rand.New(rand.NewSource(1)).Intn); len(got) != 1 || !got[0].Equal(code.Root()) {
		t.Errorf("SampleComplement of an empty table = %v, want [()]", got)
	}
	if tb.Gaps() != 1 {
		t.Errorf("Gaps of an empty table = %d, want 1", tb.Gaps())
	}
	tb.Insert(code.Root())
	if got := tb.SampleComplement(4, func(int) int { t.Error("drew from a complete table"); return 0 }); got != nil {
		t.Errorf("SampleComplement of a complete table = %v, want nil", got)
	}
	if tb.Gaps() != 0 {
		t.Errorf("Gaps of a complete table = %d, want 0", tb.Gaps())
	}
	tb.Reset()
	if tb.Gaps() != 1 {
		t.Errorf("Gaps after Reset = %d, want 1", tb.Gaps())
	}
}

// TestSampleComplementUniform: over 4 000 plans of the recovery size (an
// eighth: 4 of 32) from one fixed random stream, every one of 32 regions is
// drawn within a quarter of its share — a prefix window, a shallow-biased
// descent or an off-by-one in the selection probability all fail this by far
// more (σ of a region's count is ≈ 21 of 500).
func TestSampleComplementUniform(t *testing.T) {
	// Complete every second leaf of a 64-leaf tree: the 32 others are the
	// complement, all at the same depth.
	tb := New()
	leaves := counterLeaves(6)
	idx := map[string]int{}
	for i, c := range leaves {
		if i%2 == 0 {
			tb.Insert(c)
		} else {
			idx[c.Key()] = len(idx)
		}
	}
	const regions, k, plans = 32, 4, 4000
	if tb.Gaps() != regions {
		t.Fatalf("Gaps = %d, want %d", tb.Gaps(), regions)
	}
	r := rand.New(rand.NewSource(7))
	var hits [regions]int
	for p := 0; p < plans; p++ {
		got := tb.SampleComplement(k, r.Intn)
		if len(got) != k {
			t.Fatalf("plan %d drew %d regions, want %d", p, len(got), k)
		}
		for _, c := range got {
			i, ok := idx[c.Key()]
			if !ok {
				t.Fatalf("plan %d drew %v, not in the complement", p, c)
			}
			hits[i]++
		}
	}
	const share = plans * k / regions
	for i, h := range hits {
		if h < share*3/4 || h > share*5/4 {
			t.Errorf("region %d drawn %d times in %d plans, want %d ± 25 %%: %v", i, h, plans, share, hits)
			break
		}
	}
}
