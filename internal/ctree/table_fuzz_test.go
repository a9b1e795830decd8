package ctree

import (
	"bytes"
	"slices"
	"testing"

	"gossipbnb/internal/code"
)

// tableOps drives two tables and their references (reference_test.go)
// through the operations data spells, one byte each plus its operands, and
// compares every observable after every step (checkAgainstRef), the decision
// count, the digests (against scratchDigest, and equal exactly when the two
// tables encode alike) and the slot layout (checkSlots). Bit 3 of the operation byte picks the table it acts
// on, and bit 4 makes the other table of a merge the same one:
//
//   - op%8 == 0: Insert a code;
//   - op%8 == 1: InsertAll 1 to 4 codes, in the order given, against the
//     reference inserting them in InsertAll's order (insertOrder);
//   - op%8 == 2: Merge the other table's snapshot;
//   - op%8 == 3: MergeAt a code, of the other table's Subtree at a code;
//   - op%8 == 4: Snapshot, held until the next one and re-encoded after every
//     later step, which must not change it;
//   - op%8 == 5: Reset;
//   - op%8 == 6: replace the table with Decode(Encode) of it;
//   - op%8 == 7: Subtree at a code, capped at next byte % 4 codes (0: no
//     cap), against the reference's frontier codes under the code.
//
// A code is n = next byte % 9 decisions, one per byte after that: branch b&1
// on variable depth+1 — or, one byte in four, depth+2, a decision that
// mismatches every honest code through the same vertex.
func tableOps(t *testing.T, data []byte) {
	t.Helper()
	tabs := [2]*Table{New(), New()}
	refs := [2]*refTable{newRef(), newRef()}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var probes []code.Code
	readCode := func() code.Code {
		c := make(code.Code, next()%9)
		for d := range c {
			b := next()
			c[d] = code.Decision{Var: uint32(d + 1), Branch: b & 1}
			if b&6 == 6 {
				c[d].Var++
			}
		}
		if len(probes) < 32 {
			probes = append(probes, c)
		}
		return c
	}
	var held *Table
	var heldEnc []byte
	for step := 0; len(data) > 0 && step < 128; step++ {
		op := next()
		i := int(op >> 3 & 1)
		tb, ref := tabs[i], refs[i]
		o, oref := tabs[1-i], refs[1-i]
		if op&16 != 0 {
			o, oref = tb, ref
		}
		switch op % 8 {
		case 0:
			c := readCode()
			ok, err := tb.Insert(c)
			wantOK, wantErr := ref.Insert(c)
			if ok != wantOK || (err == nil) != (wantErr == nil) {
				t.Fatalf("step %d: Insert(%v) = %v, %v; reference %v, %v", step, c, ok, err, wantOK, wantErr)
			}
		case 1:
			batch := make([]code.Code, 1+next()%4)
			for k := range batch {
				batch[k] = readCode()
			}
			ch, er := tb.InsertAll(batch)
			wantCh, wantEr := ref.InsertAll(insertOrder(batch))
			if ch != wantCh || er != wantEr {
				t.Fatalf("step %d: InsertAll(%v) = %d, %d; reference %d, %d", step, batch, ch, er, wantCh, wantEr)
			}
		case 2:
			cs := oref.Codes()
			ch, er := tb.Merge(o.Snapshot())
			wantCh, wantEr := ref.InsertAll(cs)
			if ch != wantCh || er != wantEr {
				t.Fatalf("step %d: Merge = %d, %d; reference InsertAll(Codes) %d, %d", step, ch, er, wantCh, wantEr)
			}
		case 3:
			p, q := readCode(), readCode()
			sub, ok := o.Subtree(q, 0)
			if !ok {
				t.Fatalf("step %d: uncapped Subtree(%v) refused", step, q)
			}
			var want []code.Code
			for _, c := range sub.Codes() {
				want = append(want, append(p.Clone(), c...))
			}
			ch, er := tb.MergeAt(p, sub)
			wantCh, wantEr := ref.InsertAll(want)
			if ch != wantCh || er != wantEr {
				t.Fatalf("step %d: MergeAt(%v, %v) = %d, %d; reference %d, %d", step, p, sub.Codes(), ch, er, wantCh, wantEr)
			}
		case 4:
			held = tb.Snapshot()
			heldEnc = held.Encode(nil)
			if !bytes.Equal(heldEnc, tb.Encode(nil)) || !sameTable(held, tb) {
				t.Fatalf("step %d: snapshot %v, table %v", step, held.Codes(), tb.Codes())
			}
			checkSlots(t, held, "snapshot")
			checkAgainstRef(t, held.Clone(), ref, probes)
		case 5:
			tb.Reset()
			refs[i] = newRef()
		case 6:
			back, err := Decode(tb.Encode(nil))
			if err != nil {
				t.Fatalf("step %d: Decode(Encode): %v", step, err)
			}
			checkDecodedArena(t, tb, "decode")
			tabs[i] = back
		case 7:
			q, max := readCode(), int(next()%4)
			sub, ok := tb.Subtree(q, max)
			want := newRef()
			for _, c := range ref.Codes() {
				switch {
				case c.IsAncestorOf(q) || c.Equal(q):
					want.Insert(code.Root())
				case q.IsAncestorOf(c):
					want.Insert(c[len(q):])
				}
			}
			if !ok {
				if max == 0 || want.Len() <= max {
					t.Fatalf("step %d: Subtree(%v, %d) refused %d codes", step, q, max, want.Len())
				}
				break
			}
			checkSlots(t, sub, "subtree")
			checkAgainstRef(t, sub.Clone(), want, probes)
		}
		for j := range tabs {
			checkAgainstRef(t, tabs[j], refs[j], probes)
			checkSlots(t, tabs[j], "step")
			decs := 0
			for _, c := range refs[j].Codes() {
				decs += len(c)
			}
			if tabs[j].Decisions() != decs {
				t.Fatalf("step %d: table %d Decisions %d, reference frontier holds %d", step, j, tabs[j].Decisions(), decs)
			}
		}
		// Table 0 keeps its digests current through every later step; table
		// 1 is digested on a copy, so its own side array stays empty.
		d0, c1 := tabs[0].Digest(), tabs[1].Clone()
		if d0 != scratchDigest(tabs[0], 0) || c1.Digest() != scratchDigest(c1, 0) {
			t.Fatalf("step %d: a digest differs from its recompute", step)
		}
		if same := bytes.Equal(tabs[0].Encode(nil), tabs[1].Encode(nil)); (d0 == c1.Digest()) != same {
			t.Fatalf("step %d: digests %#x and %#x, encodings equal %v", step, d0, c1.Digest(), same)
		}
		if held != nil && !bytes.Equal(held.Encode(nil), heldEnc) {
			t.Fatalf("step %d: a held snapshot changed", step)
		}
	}
}

// insertOrder is the order InsertAll inserts cs in: as given up to the first
// code out of prefixCmp order, then the rest sorted. Where codes branch a
// vertex on different variables the first to arrive sets it, so the order
// decides which of them are refused.
func insertOrder(cs []code.Code) []code.Code {
	for i := 1; i < len(cs); i++ {
		if prefixCmp(cs[i-1], cs[i]) > 0 {
			rest := slices.Clone(cs[i:])
			slices.SortFunc(rest, prefixCmp)
			return append(slices.Clone(cs[:i]), rest...)
		}
	}
	return cs
}

// TestPropTableOps runs tableOps over random operation streams built from
// honest codes of one tree of depth up to 8, so prefixes are shared and
// codes repeat, with one decision in sixteen var-mismatched.
func TestPropTableOps(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rnd := cheapRand(seed)
		data := make([]byte, 100+rnd(400))
		for k := range data {
			data[k] = byte(rnd(256))
			if k%5 != 0 && data[k]&6 == 6 && rnd(4) != 0 { // mostly honest decisions
				data[k] &^= 4
			}
		}
		tableOps(t, data)
	}
}

// FuzzTable runs tableOps on the fuzzer's bytes. The seeds spell contraction
// to the root, a var-mismatched code, a merge both ways and of a table's own
// snapshot, a merge below a prefix, a snapshot held across a reset, a decode,
// and a capped subtree.
func FuzzTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 0, 0, 0, 2, 0, 1, 0, 2, 1, 0, 0, 2, 1, 1})                   // four leaves contract to the root
	f.Add([]byte{0, 2, 0, 0, 0, 2, 6, 1, 0, 2, 0, 1})                               // a mismatch at depth 1
	f.Add([]byte{0, 3, 0, 1, 0, 8, 2, 1, 0, 2, 2, 10, 18, 0, 1, 1})                 // merges both ways and of itself
	f.Add([]byte{8, 3, 1, 0, 1, 0, 2, 1, 0, 3, 2, 0, 1, 1, 1})                      // a subtree merged below a prefix
	f.Add([]byte{0, 3, 0, 0, 1, 4, 5, 0, 2, 1, 1, 6, 0, 1, 1, 4})                   // a snapshot held across a reset, a decode
	f.Add([]byte{1, 3, 2, 0, 0, 0, 2, 0, 1, 1, 0, 7, 1, 0, 1, 7, 0, 0, 7, 1, 1, 2}) // capped subtrees
	f.Fuzz(func(t *testing.T, data []byte) { tableOps(t, data) })
}
