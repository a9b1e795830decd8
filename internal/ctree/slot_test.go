package ctree

// Tests for the vertex layout: a complete vertex below the root is a
// doneChild slot in its parent, not an arena vertex, so the arena holds the
// trie's inner vertices alone — or the complete root — and every arena
// vertex is either reachable from the root or on the free list.

import (
	"math/rand"
	"testing"

	"gossipbnb/internal/code"
)

// arenaVertices is the number of live arena vertices a table should hold:
// every vertex of the trie but its complete leaves, NodeCount − Len, or the
// root alone when it is complete.
func arenaVertices(t *Table) int {
	if t.Complete() {
		return 1
	}
	return t.NodeCount() - t.Len()
}

// checkSlots requires tb's arena to hold the layout: no vertex reachable below
// the root is complete; the reachable vertices are arenaVertices(tb) many, each
// once; and every other arena vertex is on the free list, once.
func checkSlots(t *testing.T, tb *Table, when string) {
	t.Helper()
	seen := make([]bool, len(tb.nodes))
	reached := 0
	stack := []uint32{0}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[i] {
			t.Fatalf("%s: vertex %d is reachable twice", when, i)
		}
		seen[i] = true
		reached++
		n := &tb.nodes[i]
		if i != 0 && n.complete() {
			t.Fatalf("%s: vertex %d below the root is complete; it should be a slot", when, i)
		}
		if i != 0 && n.leaf() {
			t.Fatalf("%s: vertex %d below the root is an incomplete leaf", when, i)
		}
		for _, c := range n.children {
			if c != 0 && c != doneChild {
				stack = append(stack, c)
			}
		}
	}
	if want := arenaVertices(tb); reached != want {
		t.Fatalf("%s: %d vertices reachable, want NodeCount %d − Len %d = %d",
			when, reached, tb.NodeCount(), tb.Len(), want)
	}
	free := 0
	for i := tb.free; i != 0; i = tb.nodes[i].children[0] {
		if seen[i] {
			t.Fatalf("%s: vertex %d is reachable and on the free list", when, i)
		}
		seen[i] = true
		free++
	}
	if reached+free != len(tb.nodes) {
		t.Fatalf("%s: arena of %d holds %d reachable and %d free vertices", when, len(tb.nodes), reached, free)
	}
}

// checkDecodedArena requires the decoding of tb to allocate one vertex for
// each of tb's vertices but its complete leaves: NodeCount − Len of them, in
// an arena of exactly that capacity, or one for a complete root.
func checkDecodedArena(t *testing.T, tb *Table, when string) {
	t.Helper()
	back, err := Decode(tb.Encode(nil))
	if err != nil {
		t.Fatalf("%s: Decode(Encode): %v", when, err)
	}
	want := tb.NodeCount() - tb.Len()
	if tb.Complete() || tb.Len() == 0 {
		want = 1
	}
	if len(back.nodes) != want || cap(back.nodes) != want {
		t.Fatalf("%s: decoding %d vertices with %d complete leaves built an arena of %d (cap %d), want %d",
			when, tb.NodeCount(), tb.Len(), len(back.nodes), cap(back.nodes), want)
	}
	checkSlots(t, back, when+" (decoded)")
}

// TestPropSlotLayout drives random mixes of inserts, batch inserts, merges,
// merges below a prefix, snapshots, decodes and resets — corrupt codes among
// them — and holds every table along the way to the slot layout.
func TestPropSlotLayout(t *testing.T) {
	var slots, decoded int
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		leaves := randTree(r, 9)
		tb := New()
		for step := 0; step < 40; step++ {
			switch r.Intn(7) {
			case 0:
				tb.Insert(leaves[r.Intn(len(leaves))])
			case 1:
				batch := make([]code.Code, 1+r.Intn(6))
				for i := range batch {
					batch[i] = leaves[r.Intn(len(leaves))]
				}
				tb.InsertAll(batch)
			case 2:
				tb.Merge(randTable(r, leaves))
			case 3:
				l := leaves[r.Intn(len(leaves))]
				p := l[:r.Intn(len(l)+1)]
				if sub, ok := randTable(r, leaves).Subtree(p, 0); ok {
					tb.MergeAt(p, sub)
				}
			case 4:
				checkSlots(t, tb.Snapshot(), "snapshot")
			case 5:
				back, err := Decode(tb.Encode(nil))
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				tb = back
				decoded++
			case 6:
				if r.Intn(4) == 0 {
					tb.Reset()
				}
			}
			checkSlots(t, tb, "step")
			checkDecodedArena(t, tb, "step")
			if !tb.Complete() {
				slots += tb.Len()
			}
		}
	}
	if slots < 1000 || decoded < 100 {
		t.Fatalf("%d slots and %d decodes seen: the generator no longer covers the layout", slots, decoded)
	}
}

// TestSlotSizes pins what the layout saves on a concrete trie: the four
// leaves of a depth-2 tree with one missing are three slots under two inner
// vertices, and completing the last contracts the whole trie into the root.
func TestSlotSizes(t *testing.T) {
	tb := New()
	tb.InsertAll([]code.Code{mk(1, 0, 2, 0), mk(1, 0, 2, 1), mk(1, 1, 2, 0)})
	// mk(1,0,2,0) and mk(1,0,2,1) contract into the slot mk(1,0).
	if tb.NodeCount() != 4 || tb.Len() != 2 || len(tb.nodes) != 2 {
		t.Fatalf("NodeCount %d, Len %d, arena %d; want 4, 2, 2", tb.NodeCount(), tb.Len(), len(tb.nodes))
	}
	checkSlots(t, tb, "three leaves")
	tb.Insert(mk(1, 1, 2, 1))
	if !tb.Complete() || tb.NodeCount() != 1 || tb.free == 0 {
		t.Fatalf("Complete %v, NodeCount %d, free list %d; want the root alone and the rest free",
			tb.Complete(), tb.NodeCount(), tb.free)
	}
	checkSlots(t, tb, "complete")
}
