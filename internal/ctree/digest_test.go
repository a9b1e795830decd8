package ctree

// Property tests for the content-addressed digest layer and the subtree
// export/import used by anti-entropy diff gossip: incremental digests must
// equal a from-scratch recompute after arbitrary mutation sequences, digest
// equality must coincide with frontier equality, and the subtree wire format
// must reject malformed and padded input like Decode does.

import (
	"math/rand"
	"testing"

	"gossipbnb/internal/code"
)

// scratchDigest recomputes the digest of the vertex at index at bottom-up,
// neither reading nor writing any cache — the oracle the incremental
// maintenance is pinned to.
func scratchDigest(t *Table, at uint32) uint64 {
	n := &t.nodes[at]
	switch {
	case n.complete():
		return digestComplete
	case n.children[0] == 0 && n.children[1] == 0:
		return digestEmpty
	}
	h := mixDigest(digestEmpty, uint64(n.branchVar))
	for b := 0; b < 2; b++ {
		if n.children[b] != 0 {
			h = mixDigest(h, scratchDigest(t, n.children[b]))
		} else {
			h = mixDigest(h, digestAbsent)
		}
	}
	return h
}

// checkDigest verifies the two digest invariants on one table state:
// the incrementally maintained digest equals the from-scratch recompute, and
// the digest ↔ frontier correspondence holds against everything seen so far.
func checkDigest(t *testing.T, tbl *Table, byFrontier map[string]uint64, byDigest map[uint64]string) {
	t.Helper()
	d := tbl.Digest()
	if s := scratchDigest(tbl, 0); d != s {
		t.Fatalf("incremental digest %#x != from-scratch %#x (frontier %v)", d, s, tbl.Codes())
	}
	f := string(tbl.Encode(nil))
	if prev, ok := byFrontier[f]; ok && prev != d {
		t.Fatalf("equal frontiers, digests %#x and %#x", prev, d)
	}
	if prev, ok := byDigest[d]; ok && prev != f {
		t.Fatalf("digest %#x collides: frontiers %x and %x", d, prev, f)
	}
	byFrontier[f] = d
	byDigest[d] = f
}

// TestPropDigestIncremental drives randomized Insert/InsertAll/Merge/corrupt
// insert/Reset/endgame sequences (the reference-harness mix) and checks the
// digest invariants after every step.
func TestPropDigestIncremental(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 9)
		byFrontier := map[string]uint64{}
		byDigest := map[uint64]string{}
		tbl, src := New(), New()
		for step := 0; step < 40; step++ {
			switch r.Intn(6) {
			case 0:
				tbl.Insert(leaves[r.Intn(len(leaves))])
			case 1:
				k := 1 + r.Intn(6)
				batch := make([]code.Code, 0, k)
				for i := 0; i < k; i++ {
					batch = append(batch, leaves[r.Intn(len(leaves))])
				}
				tbl.InsertAll(batch)
			case 2:
				for i := 0; i < 3; i++ {
					src.Insert(leaves[r.Intn(len(leaves))])
				}
				tbl.Merge(src)
			case 3: // corrupt code: a failed insert must not disturb the digest
				c := leaves[r.Intn(len(leaves))].Clone()
				if len(c) > 0 {
					c[r.Intn(len(c))].Var += 1000
				}
				before := tbl.Digest()
				if _, err := tbl.Insert(c); err != nil && tbl.Digest() != before {
					t.Fatalf("seed %d step %d: rejected insert changed the digest", seed, step)
				}
			case 4: // endgame: all leaves in, then check completeness digests
				tbl.InsertAll(leaves)
			case 5: // recycle through the free list
				tbl.Reset()
			}
			checkDigest(t, tbl, byFrontier, byDigest)
		}
	}
}

// TestPropDigestEqualsAcrossInsertionOrders builds the same final frontier
// through shuffled insertion orders on distinct tables (exercising different
// contraction histories, free-list states, and stale branchVar values on
// complete vertices) and requires identical digests.
func TestPropDigestEqualsAcrossInsertionOrders(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 8)
		subset := leaves[:1+r.Intn(len(leaves))]
		want := uint64(0)
		for trial := 0; trial < 4; trial++ {
			shuffled := append([]code.Code(nil), subset...)
			r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			tbl := New()
			// Churn the table first so recycled vertices are in play.
			tbl.InsertAll(leaves)
			tbl.Reset()
			for _, c := range shuffled {
				tbl.Insert(c)
			}
			if trial == 0 {
				want = tbl.Digest()
			} else if got := tbl.Digest(); got != want {
				t.Fatalf("seed %d trial %d: digest %#x, want %#x", seed, trial, got, want)
			}
		}
	}
}

// TestDigestSubtreeRoundTrip exports random subtrees and merges them into
// fresh tables below their prefix: the re-anchored subtree must reproduce the
// original subtree's digest and knowledge state exactly, including the
// complete-above-prefix and nothing-known edge cases.
func TestDigestSubtreeRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 8)
		tbl := New()
		tbl.InsertAll(leaves[:1+r.Intn(len(leaves))])
		probes := []code.Code{code.Root()}
		for _, l := range leaves {
			probes = append(probes, l, l[:r.Intn(len(l)+1)].Clone())
		}
		for _, p := range probes {
			sub, ok := tbl.Subtree(p, 0)
			if !ok {
				t.Fatalf("seed %d: uncapped Subtree(%v) refused", seed, p)
			}
			fresh := New()
			fresh.MergeAt(p, sub)
			wd, wk, wc := tbl.DigestAt(p)
			gd, gk, gc := fresh.DigestAt(p)
			if wk != gk || wc != gc || (wk && wd != gd) {
				t.Fatalf("seed %d: subtree %v round trip: got (%#x,%v,%v), want (%#x,%v,%v)",
					seed, p, gd, gk, gc, wd, wk, wc)
			}
			// The cap must refuse exactly when the subtree exceeds it, and
			// never change what a permitted export contains.
			if n := sub.Len(); n > 0 {
				if _, ok := tbl.Subtree(p, n-1); ok && n > 1 {
					t.Fatalf("seed %d: cap %d accepted %d codes", seed, n-1, n)
				}
				capped, ok := tbl.Subtree(p, n)
				if !ok || !sameTable(capped, sub) {
					t.Fatalf("seed %d: capped export differs from uncapped", seed)
				}
			}
		}
	}
}

// TestDigestChildren checks the walk-descent view: each present child's
// digest must equal DigestAt of the corresponding extended prefix.
func TestDigestChildren(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	leaves := randTree(r, 8)
	tbl := New()
	tbl.InsertAll(leaves[:len(leaves)/2+1])
	var walk func(p code.Code)
	walk = func(p code.Code) {
		bv, kids, ok := tbl.Children(p)
		if !ok {
			return
		}
		for b := 0; b < 2; b++ {
			child := p.Child(bv, uint8(b))
			d, known, _ := tbl.DigestAt(child)
			if kids[b].Present != known {
				t.Fatalf("Children(%v) branch %d: Present %v, DigestAt known %v", p, b, kids[b].Present, known)
			}
			if known && kids[b].Digest != d {
				t.Fatalf("Children(%v) branch %d: digest %#x, DigestAt %#x", p, b, kids[b].Digest, d)
			}
			if known {
				walk(child)
			}
		}
	}
	walk(code.Root())
}

// TestDigestSubtreeDecodeHardening: what Subtree copies out is a table in
// the one canonical spelling the decoder holds input to — contracted, compact
// — so it travels as any other: Decode rebuilds it and rejects a trailing byte
// or a cut at any split point.
func TestDigestSubtreeDecodeHardening(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	leaves := randTree(r, 6)
	tbl := New()
	tbl.InsertAll(leaves[:len(leaves)/2+1])
	sub, _ := tbl.Subtree(leaves[0][:1], 0)
	enc := sub.Encode(nil)
	if len(enc) != sub.EncodedSize() || sub.Len() < 2 {
		t.Fatalf("EncodedSize %d, encoded %d bytes, %d codes", sub.EncodedSize(), len(enc), sub.Len())
	}
	back, err := Decode(enc)
	if err != nil || !sameTable(back, sub) {
		t.Fatalf("round trip: %v, %v", back.Codes(), err)
	}
	if _, err := Decode(append(enc[:len(enc):len(enc)], 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestDigestEmptyAndComplete pins the two distinguished states: all empty
// tables share one digest, all complete tables share another, and the two
// never coincide.
func TestDigestEmptyAndComplete(t *testing.T) {
	empty := New()
	if empty.Digest() != New().Digest() {
		t.Fatal("two empty tables disagree")
	}
	done := New()
	done.Insert(code.Root())
	done2 := New()
	done2.Insert(code.Root().Child(1, 0))
	done2.Insert(code.Root().Child(1, 1))
	if done.Digest() != done2.Digest() {
		t.Fatal("directly-complete and contraction-complete tables disagree")
	}
	if empty.Digest() == done.Digest() {
		t.Fatal("empty and complete tables share a digest")
	}
}

// covers reports whether p is a prefix of c (equal or proper ancestor).
func covers(p, c code.Code) bool {
	return p.Equal(c) || p.IsAncestorOf(c)
}

// TestPropCoveringMatchesFrontier pins Covering — the query the
// merge-forward relay is built on — to its specification: after any insert
// sequence, Covering(c) returns exactly the frontier code that is a prefix
// of c (inserted content is always covered, never-inserted siblings are
// covered only once contraction absorbed them).
func TestPropCoveringMatchesFrontier(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 8)
		tbl := New()
		for step := 0; step < 30; step++ {
			c := leaves[r.Intn(len(leaves))]
			if _, err := tbl.Insert(c); err != nil {
				t.Fatalf("seed %d: insert: %v", seed, err)
			}
			frontier := tbl.Codes()
			for _, probe := range leaves {
				cov, ok := tbl.Covering(probe)
				var want code.Code
				found := false
				for _, f := range frontier {
					if covers(f, probe) {
						want, found = f, true
						break
					}
				}
				if ok != found {
					t.Fatalf("seed %d step %d: Covering(%v) ok=%v, frontier says %v",
						seed, step, probe, ok, found)
				}
				if ok && !cov.Equal(want) {
					t.Fatalf("seed %d step %d: Covering(%v) = %v, want frontier code %v",
						seed, step, probe, cov, want)
				}
			}
			// Relay invariant: content this table accepted is always covered.
			cov, ok := tbl.Covering(c)
			if !ok || !covers(cov, c) {
				t.Fatalf("seed %d step %d: inserted %v not covered (ok=%v cov=%v)",
					seed, step, c, ok, cov)
			}
		}
	}
}
