package ctree

// Property tests for the derived quantities the table carries instead of
// recomputing (Len, EncodedSize, the decision count that sizes the
// frontier chunks) and for the storage a materialised frontier shares: codes
// carved from common chunks must behave, to every caller, like the independent
// clones they replaced.

import (
	"bytes"
	"math/rand"
	"testing"

	"gossipbnb/internal/code"
)

// checkSums reads Len and EncodedSize first — straight after the
// mutation, before anything materialises the frontier — and requires them to
// agree with what the frontier and the encoding then say, and the table Decode
// rebuilds from the encoding to be this one (checkDecoded).
func checkSums(t *testing.T, tb *Table, when string) {
	t.Helper()
	n, e := tb.Len(), tb.EncodedSize()
	cs := tb.Codes()
	if n != len(cs) {
		t.Fatalf("%s: Len %d, len(Codes()) %d", when, n, len(cs))
	}
	enc := tb.Encode(nil)
	if e != len(enc) {
		t.Fatalf("%s: EncodedSize %d, len(Encode(nil)) %d", when, e, len(enc))
	}
	decs := 0
	for _, c := range cs {
		decs += len(c)
	}
	if tb.depthSum != decs {
		t.Fatalf("%s: depthSum %d, frontier holds %d decisions", when, tb.depthSum, decs)
	}
	checkDecoded(t, tb, enc, when)
}

// checkDecoded requires Decode(enc), enc being tb's encoding, to rebuild tb:
// the same frontier, sums, gaps, complement and digest, and the encoding
// again, laid out as a compact arena with no free vertex. tb is only read —
// its digest and complement are taken from a clone — so a caller's table keeps
// the state that the paths under test depend on.
func checkDecoded(t *testing.T, tb *Table, enc []byte, when string) {
	t.Helper()
	back, err := Decode(enc)
	if err != nil {
		t.Fatalf("%s: Decode(Encode): %v", when, err)
	}
	c := tb.Clone()
	if !sameTable(back, tb) || back.EncodedSize() != tb.EncodedSize() || back.Complete() != tb.Complete() {
		t.Fatalf("%s: Decode(Encode) = %v (%d B, %d gaps, %d vertices), want %v (%d B, %d gaps, %d vertices)",
			when, back.Codes(), back.EncodedSize(), back.Gaps(), back.NodeCount(), tb.Codes(), tb.EncodedSize(), tb.Gaps(), tb.NodeCount())
	}
	if !codesExactlyEqual(back.Complement(0), c.Complement(0)) || back.Digest() != c.Digest() {
		t.Fatalf("%s: decoded complement %v digest %#x, want %v %#x", when, back.Complement(0), back.Digest(), c.Complement(0), c.Digest())
	}
	if len(back.nodes) != back.NodeCount() || back.free != 0 || !bytes.Equal(back.Encode(nil), enc) {
		t.Fatalf("%s: decoded arena of %d for %d vertices, free list %d; re-encodes to %x, want %x",
			when, len(back.nodes), back.NodeCount(), back.free, back.Encode(nil), enc)
	}
}

// TestPropSumsMatchFrontier drives every mutating operation — the ones
// TestPropTableMatchesReference covers plus Subtree and MergeAt, Clone and the
// Reset-then-reuse cycle of protocol's tablePool — through a table and the
// reference, checking the sums and the frontier after every step.
func TestPropSumsMatchFrontier(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 9)
		pick := func() code.Code { return leaves[r.Intn(len(leaves))] }
		tb, ref := New(), newRef()
		src, srcRef := New(), newRef() // merge and subtree source
		for step := 0; step < 60; step++ {
			var op string
			switch r.Intn(8) {
			case 0:
				op = "Insert"
				c := pick()
				tb.Insert(c)
				ref.Insert(c)
			case 1:
				op = "InsertAll"
				batch := make([]code.Code, 2+r.Intn(6))
				for i := range batch {
					batch[i] = pick()
				}
				tb.InsertAll(batch)
				ref.InsertAll(batch)
			case 2:
				op = "Merge"
				for i := 0; i < 3; i++ {
					c := pick()
					src.Insert(c)
					srcRef.Insert(c)
				}
				tb.Merge(src)
				ref.InsertAll(srcRef.Codes())
			case 3:
				op = "MergeAt"
				c := pick()
				src.Insert(c)
				srcRef.Insert(c)
				prefix := c[:r.Intn(len(c)+1)]
				sub, ok := src.Subtree(prefix, 0)
				if !ok {
					t.Fatalf("seed %d step %d: unbounded Subtree refused", seed, step)
				}
				checkSums(t, sub, "Subtree")
				tb.MergeAt(prefix, sub)
				for _, rc := range sub.Codes() {
					ref.Insert(append(prefix.Clone(), rc...))
				}
			case 4:
				op = "Clone"
				tb = tb.Clone()
			case 5:
				op = "contraction to the root"
				for _, c := range leaves {
					tb.Insert(c)
					ref.Insert(c)
				}
			case 6:
				op = "Reset"
				tb.Reset()
				ref = newRef()
			case 7:
				op = "Reset and reuse"
				tb.Reset()
				ref = newRef()
				for i := 0; i < 4; i++ {
					c := pick()
					tb.Insert(c)
					ref.Insert(c)
				}
			}
			checkSums(t, tb, op)
			checkSums(t, src, op+" (source)")
			if !codesExactlyEqual(tb.Codes(), ref.Codes()) {
				t.Fatalf("seed %d step %d %s: Codes %v, ref %v", seed, step, op, tb.Codes(), ref.Codes())
			}
			if tb.Len() != ref.Len() {
				t.Fatalf("seed %d step %d %s: Len %d, ref %d", seed, step, op, tb.Len(), ref.Len())
			}
		}
	}
}

func cloneCodes(cs []code.Code) []code.Code {
	out := make([]code.Code, len(cs))
	for i, c := range cs {
		out[i] = c.Clone()
	}
	return out
}

// scribble appends to every code of a frontier and to the frontier itself,
// as a careless holder might.
func scribble(cs []code.Code) {
	for _, c := range cs {
		_ = append(c, code.Decision{Var: 1 << 20, Branch: 1})
	}
	_ = append(cs, mk(1<<20, 1))
}

// TestFrontierAliasing: the codes of one frontier share chunks, so each must
// be clipped to its own length — an append to one may not reach its
// neighbour or a later Codes — and a frontier a caller still holds (a
// report in flight) must survive later mutations, Reset and reuse untouched.
func TestFrontierAliasing(t *testing.T) {
	leaves := counterLeaves(10) // 1024 codes of depth 10: several 4 KB chunks
	tb := New()
	for i, c := range leaves {
		if i%3 != 0 {
			tb.Insert(c)
		}
	}
	held := tb.Codes()
	want := cloneCodes(held)
	st, ok := tb.Subtree(leaves[0][:2], 0)
	sub := st.Codes()
	if !ok || len(sub) == 0 {
		t.Fatalf("Subtree: %d codes, ok %v", len(sub), ok)
	}
	wantSub := cloneCodes(sub)

	scribble(held)
	scribble(sub)
	if !codesExactlyEqual(held, want) || !codesExactlyEqual(sub, wantSub) {
		t.Fatal("append to a frontier code reached a neighbour")
	}
	if !codesExactlyEqual(tb.Codes(), want) {
		t.Fatal("append to a frontier code reached a later Codes")
	}

	// The "report in flight" contract: mutate, flush, recycle, refill.
	for i, c := range leaves {
		if i%3 == 0 && i%2 == 0 {
			tb.Insert(c)
		}
	}
	scribble(tb.Codes())
	tb.Reset()
	for _, c := range leaves[:len(leaves)/2] {
		tb.Insert(c)
	}
	scribble(tb.Codes())
	if !codesExactlyEqual(held, want) || !codesExactlyEqual(sub, wantSub) {
		t.Fatal("a held frontier changed under later mutations")
	}
}
