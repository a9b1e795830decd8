package dbnb

import (
	"math/rand"
	"slices"
	"testing"

	"gossipbnb/internal/sim"
)

// insertionSortInbox is the hand-rolled canonicalisation the driver used
// before it called slices.SortStableFunc, kept as the reference the golden
// event-order hashes were captured against.
func insertionSortInbox(in []inMsg) {
	for i := 1; i < len(in); i++ {
		m := in[i]
		j := i - 1
		for j >= 0 && (in[j].at > m.at || (in[j].at == m.at && in[j].from > m.from)) {
			in[j+1] = in[j]
			j--
		}
		in[j+1] = m
	}
}

// tagged makes batch entries distinguishable beyond their sort key, so a
// stability difference between two sorts shows.
type tagged struct{ protocolMsg int }

func (tagged) Size() int  { return 0 }
func (tagged) Kind() byte { return 0 }

// TestPropInboxOrderMatchesInsertionSort: on random batches — short and
// long, nearly sorted and shuffled, with many (time, sender) ties — the
// library sort produces the very sequence the old loop did, entry for entry.
func TestPropInboxOrderMatchesInsertionSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(200)
		times, senders := 1+r.Intn(6), 1+r.Intn(8)
		batch := make([]inMsg, n)
		for i := range batch {
			at := float64(r.Intn(times))
			if trial%2 == 0 {
				at = float64(i * times / (n + 1)) // arrival order, as the kernel appends
			}
			batch[i] = inMsg{from: sim.NodeID(r.Intn(senders)), at: at, msg: tagged{i}}
		}
		want := slices.Clone(batch)
		insertionSortInbox(want)
		slices.SortStableFunc(batch, arrivalOrder)
		if !slices.Equal(batch, want) {
			t.Fatalf("trial %d (n=%d): orders differ", trial, n)
		}
	}
}

// TestInboxSortNotQuadratic is the shape that cost the 10 000-process tier
// 7.6 of 10.8 s: one same-time broadcast lands on a busy process from every
// other process, in descending sender order. The insertion sort compares
// every pair (5·10⁷); the bound is on comparisons, not on wall-clock.
func TestInboxSortNotQuadratic(t *testing.T) {
	const n = 10000
	batch := make([]inMsg, n)
	for i := range batch {
		batch[i] = inMsg{from: sim.NodeID(n - i), at: 1}
	}
	cmps := 0
	slices.SortStableFunc(batch, func(a, b inMsg) int {
		cmps++
		return arrivalOrder(a, b)
	})
	if !slices.IsSortedFunc(batch, arrivalOrder) {
		t.Fatal("batch not sorted")
	}
	if limit := 40 * n; cmps > limit { // n·log₂n ≈ 13·n; insertion sort needs n²/2
		t.Errorf("%d comparisons to order %d messages, want ≤ %d", cmps, n, limit)
	}
}
