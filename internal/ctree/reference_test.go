package ctree

// The pre-optimization completion table, kept verbatim as a test-only
// reference: recursive clone-per-node walks, per-level contraction re-walks
// from the root, no caches, no free list. TestPropTableMatchesReference
// drives it and the optimized Table through identical randomized
// insert/merge/complement/termination sequences and requires observably
// identical behavior, so the O(depth) hot path cannot drift from the
// mechanism the paper specifies.

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"gossipbnb/internal/code"
)

type refNode struct {
	branchVar uint32
	children  [2]*refNode
	hasChild  [2]bool
	complete  bool
}

type refTable struct {
	root      *refNode
	nodeCount int
}

func newRef() *refTable { return &refTable{root: &refNode{}, nodeCount: 1} }

func (t *refTable) Insert(c code.Code) (bool, error) {
	n := t.root
	for depth, d := range c {
		if n.complete {
			return false, nil
		}
		if !n.hasChild[0] && !n.hasChild[1] {
			n.branchVar = d.Var
		} else if n.branchVar != d.Var {
			return false, &VarMismatchError{Code: c, Depth: depth, Want: n.branchVar, Got: d.Var}
		}
		b := d.Branch & 1
		if !n.hasChild[b] {
			n.children[b] = &refNode{}
			n.hasChild[b] = true
			t.nodeCount++
		}
		n = n.children[b]
	}
	if n.complete {
		return false, nil
	}
	n.complete = true
	t.prune(n)
	t.contract(c)
	return true, nil
}

func (t *refTable) prune(n *refNode) {
	for b := 0; b < 2; b++ {
		if n.hasChild[b] {
			t.nodeCount -= refCount(n.children[b])
			n.children[b] = nil
			n.hasChild[b] = false
		}
	}
}

func refCount(n *refNode) int {
	c := 1
	for b := 0; b < 2; b++ {
		if n.hasChild[b] {
			c += refCount(n.children[b])
		}
	}
	return c
}

func (t *refTable) contract(c code.Code) {
	for depth := len(c); depth > 0; depth-- {
		p := t.root
		for i := 0; i < depth-1; i++ {
			p = p.children[c[i].Branch&1]
			if p == nil {
				return
			}
		}
		if p.complete {
			return
		}
		if !p.hasChild[0] || !p.hasChild[1] ||
			!p.children[0].complete || !p.children[1].complete {
			return
		}
		p.complete = true
		t.prune(p)
	}
}

func (t *refTable) Complete() bool { return t.root.complete }

// SampleComplement is the sampled walk done the plain way: build the whole
// complement, then run the same selection sampling over the list, so the same
// rnd sequence must choose the same regions.
func (t *refTable) SampleComplement(k int, rnd func(n int) int) []code.Code {
	comp := t.Complement(0)
	var out []code.Code
	for i, c := range comp {
		if len(out) >= k {
			break
		}
		if rnd(len(comp)-i) < k-len(out) {
			out = append(out, c)
		}
	}
	return out
}

func (t *refTable) Contains(c code.Code) bool {
	n := t.root
	for _, d := range c {
		if n.complete {
			return true
		}
		if !n.hasChild[d.Branch&1] || n.branchVar != d.Var {
			return false
		}
		n = n.children[d.Branch&1]
	}
	return n.complete
}

func (t *refTable) Codes() []code.Code {
	var out []code.Code
	var walk func(n *refNode, prefix code.Code)
	walk = func(n *refNode, prefix code.Code) {
		if n.complete {
			out = append(out, prefix.Clone())
			return
		}
		for b := uint8(0); b < 2; b++ {
			if n.hasChild[b] {
				walk(n.children[b], prefix.Child(n.branchVar, b))
			}
		}
	}
	walk(t.root, code.Root())
	return out
}

func (t *refTable) Complement(max int) []code.Code {
	var out []code.Code
	var walk func(n *refNode, prefix code.Code) bool
	walk = func(n *refNode, prefix code.Code) bool {
		if n.complete {
			return true
		}
		if !n.hasChild[0] && !n.hasChild[1] {
			out = append(out, prefix.Clone())
			return max <= 0 || len(out) < max
		}
		for b := uint8(0); b < 2; b++ {
			child := prefix.Child(n.branchVar, b)
			if n.hasChild[b] {
				if !walk(n.children[b], child) {
					return false
				}
			} else {
				out = append(out, child)
				if max > 0 && len(out) >= max {
					return false
				}
			}
		}
		return true
	}
	walk(t.root, code.Root())
	return out
}

func (t *refTable) InsertAll(cs []code.Code) (changed, errs int) {
	for _, c := range cs {
		ok, err := t.Insert(c)
		if err != nil {
			errs++
			continue
		}
		if ok {
			changed++
		}
	}
	return changed, errs
}

func (t *refTable) Len() int {
	n := 0
	var walk func(*refNode)
	walk = func(v *refNode) {
		if v.complete {
			n++
			return
		}
		for b := 0; b < 2; b++ {
			if v.hasChild[b] {
				walk(v.children[b])
			}
		}
	}
	walk(t.root)
	return n
}

// Encode is the trie encoding spelled out from the pointer trie: a recursive
// pre-order walk collects each vertex's child mask as its tag and each inner
// vertex's variable, then the tags are packed four to a byte.
func (t *refTable) Encode(dst []byte) []byte {
	if t.Len() == 0 {
		return append(dst, 0)
	}
	var tags, vars []byte
	var walk func(n *refNode)
	walk = func(n *refNode) {
		var tag byte
		for b := 0; b < 2; b++ {
			if n.hasChild[b] {
				tag |= 1 << b
			}
		}
		tags = append(tags, tag)
		if tag != 0 {
			vars = binary.AppendUvarint(vars, uint64(n.branchVar))
		}
		for b := 0; b < 2; b++ {
			if n.hasChild[b] {
				walk(n.children[b])
			}
		}
	}
	walk(t.root)
	packed := make([]byte, (len(tags)+3)/4)
	for i, tag := range tags {
		packed[i/4] |= tag << (2 * (i % 4))
	}
	dst = binary.AppendUvarint(dst, uint64(len(tags)))
	return append(append(dst, packed...), vars...)
}

// --- equivalence property -----------------------------------------------------

func codesExactlyEqual(a, b []code.Code) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// checkAgainstRef compares every observable of the optimized table against
// the reference, including output order (both walk depth-first, branch 0
// first).
func checkAgainstRef(t *testing.T, opt *Table, ref *refTable, probes []code.Code) {
	t.Helper()
	if opt.Complete() != ref.Complete() {
		t.Fatalf("Complete: opt %v, ref %v", opt.Complete(), ref.Complete())
	}
	if opt.Len() != ref.Len() {
		t.Fatalf("Len: opt %d, ref %d", opt.Len(), ref.Len())
	}
	if opt.NodeCount() != ref.nodeCount {
		t.Fatalf("NodeCount: opt %d, ref %d", opt.NodeCount(), ref.nodeCount)
	}
	if oc, rc := opt.Codes(), ref.Codes(); !codesExactlyEqual(oc, rc) {
		t.Fatalf("Codes: opt %v, ref %v", oc, rc)
	}
	if ob, rb := opt.Encode(nil), ref.Encode(nil); string(ob) != string(rb) || opt.EncodedSize() != len(rb) {
		t.Fatalf("Encode: opt %x (EncodedSize %d), ref %x", ob, opt.EncodedSize(), rb)
	}
	for _, max := range []int{0, 1, 3, 8} {
		if oc, rc := opt.Complement(max), ref.Complement(max); !codesExactlyEqual(oc, rc) {
			t.Fatalf("Complement(%d): opt %v, ref %v", max, oc, rc)
		}
	}
	checkSampleAgainstRef(t, opt, ref)
	frontier := ref.Codes()
	for _, p := range probes {
		if opt.Contains(p) != ref.Contains(p) {
			t.Fatalf("Contains(%v): opt %v, ref %v", p, opt.Contains(p), ref.Contains(p))
		}
		// Overlaps: a completion at or above p (Contains), or a frontier
		// code below it.
		below := slices.ContainsFunc(frontier, p.IsAncestorOf)
		if want := ref.Contains(p) || below; opt.Overlaps(p) != want {
			t.Fatalf("Overlaps(%v): opt %v, want %v", p, opt.Overlaps(p), want)
		}
	}
}

// cheapRand is a repeatable rnd(n) for the per-step checks, where seeding a
// math/rand source a dozen times per step would dominate the suite.
func cheapRand(state uint64) func(n int) int {
	return func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
}

// checkSampleAgainstRef holds the sampled complement walk to its contract on
// whatever state the sequence reached: Gaps is the size of the complement (so
// 0 exactly when the table is complete); a draw of k is min(k, N) distinct
// regions of Complement(0), none of them Contains-ed, in walk order, and the
// very ones the reference picks from the same random sequence; asking for N or
// more returns the complement itself.
func checkSampleAgainstRef(t *testing.T, opt *Table, ref *refTable) {
	t.Helper()
	comp := ref.Complement(0)
	n := len(comp)
	if opt.Gaps() != n {
		t.Fatalf("Gaps = %d, complement holds %d: %v", opt.Gaps(), n, comp)
	}
	if (n == 0) != opt.Complete() {
		t.Fatalf("Gaps = %d on a table with Complete() = %v", n, opt.Complete())
	}
	for _, k := range []int{-1, 0, 1, 3, n / 2, n, n + 5} {
		got := opt.SampleComplement(k, cheapRand(uint64(k)))
		want := ref.SampleComplement(k, cheapRand(uint64(k)))
		if !codesExactlyEqual(got, want) {
			t.Fatalf("SampleComplement(%d) of %v: opt %v, ref %v", k, comp, got, want)
		}
		if len(got) != max(0, min(k, n)) {
			t.Fatalf("SampleComplement(%d) of %d regions returned %d", k, n, len(got))
		}
		if k >= n && !codesExactlyEqual(got, comp) {
			t.Fatalf("SampleComplement(%d) = %v, want the whole complement %v", k, got, comp)
		}
		at := 0 // walk order and membership at once: got is a subsequence of comp
		for _, c := range got {
			for at < n && !comp[at].Equal(c) {
				at++
			}
			if at == n {
				t.Fatalf("SampleComplement(%d) = %v is not a subsequence of %v", k, got, comp)
			}
			at++ // past the match: a duplicate cannot match again
			if opt.Contains(c) {
				t.Fatalf("SampleComplement(%d) drew %v, which the table contains", k, c)
			}
		}
	}
}

// TestPropTableMatchesReference drives randomized operation sequences —
// single inserts, sorted-batch InsertAll, merges from a second table pair,
// corrupt (var-mismatch) codes, resets, and full-termination endgames —
// through the optimized table and the reference, comparing every observable
// after each step.
func TestPropTableMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 9)
		// Probe codes: the leaves plus some of their prefixes.
		probes := append([]code.Code(nil), leaves...)
		for _, l := range leaves {
			if len(l) > 1 {
				probes = append(probes, l[:r.Intn(len(l))].Clone())
			}
		}
		opt, ref := New(), newRef()
		opt2, ref2 := New(), newRef() // merge source pair
		for step := 0; step < 40; step++ {
			switch r.Intn(7) {
			case 0: // single insert
				c := leaves[r.Intn(len(leaves))]
				ok1, err1 := opt.Insert(c)
				ok2, err2 := ref.Insert(c)
				if ok1 != ok2 || (err1 == nil) != (err2 == nil) {
					t.Fatalf("seed %d step %d: Insert(%v): opt (%v,%v), ref (%v,%v)",
						seed, step, c, ok1, err1, ok2, err2)
				}
			case 1: // batch insert; changed counts may legitimately differ in
				// value (sorted vs caller order), but not in zeroness
				k := 1 + r.Intn(6)
				batch := make([]code.Code, 0, k)
				for i := 0; i < k; i++ {
					batch = append(batch, leaves[r.Intn(len(leaves))])
				}
				ch1, errs1 := opt.InsertAll(batch)
				ch2, errs2 := ref.InsertAll(batch)
				if (ch1 == 0) != (ch2 == 0) || errs1 != errs2 {
					t.Fatalf("seed %d step %d: InsertAll: opt (%d,%d), ref (%d,%d)",
						seed, step, ch1, errs1, ch2, errs2)
				}
			case 2: // grow the merge source, then merge it in
				for i := 0; i < 3; i++ {
					c := leaves[r.Intn(len(leaves))]
					opt2.Insert(c)
					ref2.Insert(c)
				}
				ch1, _ := opt.Merge(opt2)
				ch2, _ := ref.InsertAll(ref2.Codes())
				if (ch1 == 0) != (ch2 == 0) {
					t.Fatalf("seed %d step %d: Merge changed: opt %d, ref %d", seed, step, ch1, ch2)
				}
			case 3: // corrupt code: flip a branch variable mid-path
				c := leaves[r.Intn(len(leaves))].Clone()
				if len(c) > 0 {
					c[r.Intn(len(c))].Var += 1000
				}
				_, err1 := opt.Insert(c)
				_, err2 := ref.Insert(c)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("seed %d step %d: corrupt Insert: opt err %v, ref err %v",
						seed, step, err1, err2)
				}
			case 4: // completion endgame: insert every leaf. The tables reach
				// the root unless an earlier corrupt code poisoned a branch
				// variable — in which case both must be equally stuck, which
				// checkAgainstRef verifies.
				for _, c := range leaves {
					ok1, err1 := opt.Insert(c)
					ok2, err2 := ref.Insert(c)
					if ok1 != ok2 || (err1 == nil) != (err2 == nil) {
						t.Fatalf("seed %d step %d: endgame Insert(%v): opt (%v,%v), ref (%v,%v)",
							seed, step, c, ok1, err1, ok2, err2)
					}
				}
				if opt.Complete() != ref.Complete() {
					t.Fatalf("seed %d step %d: endgame Complete: opt %v, ref %v",
						seed, step, opt.Complete(), ref.Complete())
				}
			case 5: // recycle the optimized table; rebuild the reference to match
				opt.Reset()
				ref = newRef()
			case 6: // snapshot: copies the arena back defragmented, free list dropped
				opt.Snapshot()
			}
			checkAgainstRef(t, opt, ref, probes)
		}
	}
}

// TestPropInsertAllMatchesSequential checks the prefix-sharing batch insert
// against one-at-a-time insertion of the same batch into a sibling table:
// identical final state, and a changed count that is zero for exactly the
// same batches.
func TestPropInsertAllMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 8)
		batchT, seqT := New(), New()
		for round := 0; round < 10; round++ {
			k := 1 + r.Intn(8)
			batch := make([]code.Code, 0, k)
			for i := 0; i < k; i++ {
				batch = append(batch, leaves[r.Intn(len(leaves))])
			}
			ch1, errs1 := batchT.InsertAll(batch)
			ch2, errs2 := 0, 0
			for _, c := range batch {
				ok, err := seqT.Insert(c)
				if err != nil {
					errs2++
				} else if ok {
					ch2++
				}
			}
			if (ch1 == 0) != (ch2 == 0) || errs1 != errs2 {
				t.Fatalf("seed %d round %d: batch (%d,%d) vs sequential (%d,%d)",
					seed, round, ch1, errs1, ch2, errs2)
			}
			if !codesExactlyEqual(batchT.Codes(), seqT.Codes()) {
				t.Fatalf("seed %d round %d: batch state %v, sequential state %v",
					seed, round, batchT.Codes(), seqT.Codes())
			}
		}
	}
}

// TestPropInsertAllAnyOrder pins the order-checked merge to the reference
// (which inserts in the caller's order, knowing nothing of prefix order):
// whatever shape a batch arrives in — ordered, reversed, shuffled, with
// duplicates, an ancestor after its descendants, corrupt codes in the middle,
// nothing new at all — the final table, the changed == 0 verdict and errs are
// the reference's, the input is left as it was, and the sort scratch is used
// only when the batch breaks order and holds nothing afterwards.
//
// One leaf H of each tree is never inserted, so no ancestor of H ever
// completes; the corrupt codes are H with the variable changed at a depth
// where the pre-state already branches, so they fail with a var mismatch in
// every insertion order and the comparison with the reference is well defined.
func TestPropInsertAllAnyOrder(t *testing.T) {
	ran, fellBack, nothingNew := 0, 0, 0
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 9)
		if len(leaves) < 6 {
			continue
		}
		ran++
		h := r.Intn(len(leaves))
		held := leaves[h]
		rest := append(append([]code.Code(nil), leaves[:h]...), leaves[h+1:]...)

		// Pre-state: a random non-empty part of the tree. pool: what a batch
		// draws from — every leaf but H and every interior vertex off H's path.
		var pre []code.Code
		for _, c := range rest {
			if r.Intn(3) == 0 {
				pre = append(pre, c)
			}
		}
		if len(pre) == 0 {
			pre = append(pre, rest[r.Intn(len(rest))])
		}
		pool := append([]code.Code(nil), rest...)
		for _, c := range rest {
			for d := 1; d < len(c); d++ {
				if p := c[:d:d]; !p.IsAncestorOf(held) {
					pool = append(pool, p)
				}
			}
		}
		deepest := 0 // the pre-state branches at every depth ≤ deepest of H's path
		for _, c := range pre {
			deepest = max(deepest, code.CommonPrefixLen(c, held))
		}
		corrupt := func() code.Code {
			c := held.Clone()
			c[r.Intn(deepest+1)].Var += 1000
			return c
		}
		draw := func(from []code.Code, k int) []code.Code {
			out := make([]code.Code, k)
			for i := range out {
				out[i] = from[r.Intn(len(from))]
			}
			return out
		}
		sorted := func(cs []code.Code) []code.Code {
			slices.SortFunc(cs, prefixCmp)
			return cs
		}

		base := sorted(draw(pool, 2+r.Intn(10)))
		reversed := slices.Clone(base)
		slices.Reverse(reversed)
		shuffled := slices.Clone(base)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var doubled []code.Code
		for _, c := range base {
			doubled = append(doubled, c, c)
		}
		deep := base[len(base)-1]
		for _, c := range base {
			if len(c) > len(deep) {
				deep = c
			}
		}
		mid := len(base) / 2
		poisoned := slices.Concat(base[:mid], []code.Code{corrupt(), corrupt()}, base[mid:])

		shapes := []struct {
			name    string
			batch   []code.Code
			ordered bool
		}{
			{"ordered", base, true},
			{"reversed", reversed, false},
			{"shuffled", shuffled, false},
			{"doubled", doubled, true},
			{"doubled then repeated", append(slices.Clone(doubled), base[0]), false},
			{"ancestor after descendant", append(slices.Clone(base), deep[:len(deep)-1]), false},
			{"var mismatch in the middle", poisoned, false},
			{"var mismatch in order", sorted(slices.Clone(poisoned)), true},
			{"nothing new", draw(pre, 1+r.Intn(6)), false},
			{"nothing new in order", sorted(draw(pre, 1+r.Intn(6))), true},
		}
		for _, sh := range shapes {
			opt, ref := New(), newRef()
			for _, c := range pre {
				opt.Insert(c)
				ref.Insert(c)
			}
			in := slices.Clone(sh.batch)
			ch1, errs1 := opt.InsertAll(in)
			ch2, errs2 := ref.InsertAll(sh.batch)
			if (ch1 == 0) != (ch2 == 0) || errs1 != errs2 {
				t.Fatalf("seed %d %s: InsertAll(%v): opt (%d,%d), ref (%d,%d)",
					seed, sh.name, sh.batch, ch1, errs1, ch2, errs2)
			}
			if !codesExactlyEqual(in, sh.batch) {
				t.Fatalf("seed %d %s: InsertAll reordered its input: %v, was %v", seed, sh.name, in, sh.batch)
			}
			checkAgainstRef(t, opt, ref, leaves)
			if sh.ordered && sortBuf(opt) != nil {
				t.Fatalf("seed %d %s: an ordered batch went through the sort scratch", seed, sh.name)
			}
			if sortBuf(opt) != nil {
				fellBack++
			}
			if ch1 == 0 {
				nothingNew++
			}
			for _, c := range sortBuf(opt)[:cap(sortBuf(opt))] {
				if c != nil {
					t.Fatalf("seed %d %s: the sort scratch still holds %v", seed, sh.name, c)
				}
			}
		}
	}
	if ran < 40 || fellBack < 4*ran || nothingNew < 2*ran {
		t.Fatalf("%d usable trees, %d batches took the out-of-order path, %d changed nothing: the generator no longer covers the cases",
			ran, fellBack, nothingNew)
	}
}
