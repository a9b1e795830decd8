package protocol

// Allocation regression guard for the report hot path: one full cycle —
// a batch of leaf completions entering table and outbox, then FlushReport
// materialising the outbox's frontier once and recycling the outbox —
// stays within a small constant allocation budget. Before the hot-path work
// (ISSUE 3) the same cycle allocated a fresh outbox table plus one clone per
// trie edge per flush.

import (
	"testing"

	"gossipbnb/internal/code"
)

// discardSender drops messages without retaining them, so the guard measures
// the core, not the test harness.
type discardSender struct{}

func (discardSender) Send(to NodeID, m Msg) {}

func TestFlushReportCycleAllocs(t *testing.T) {
	const depth = 12
	clk := &fakeClock{}
	peers := []NodeID{1, 2, 3}
	core := New(0, Config{ReportBatch: 1 << 20, ReportFanout: 2}, Deps{
		Clock:    clk,
		Sender:   discardSender{},
		Expander: fakeTree{depth: depth},
		Peers:    func() []NodeID { return peers },
		Rand:     func(n int) int { return 0 },
	})
	// Pre-generate the leaf items in binary-counter order so contraction
	// keeps both table and outbox small while every cycle does real trie
	// work. ReportBatch is out of reach, so flushes happen only where the
	// measured function calls FlushReport.
	n := 1 << depth
	items := make([]Item, 0, n)
	for i := 0; i < n; i++ {
		c := code.Root()
		for d := 0; d < depth; d++ {
			c = c.Child(uint32(d+1), uint8(i>>(depth-1-d))&1)
		}
		items = append(items, Item{Code: c})
	}
	leaf := Outcome{Feasible: true, Value: 1}
	cursor := 0
	cycle := func() {
		for i := 0; i < 8; i++ {
			core.OnExpanded(items[cursor], leaf, 0.01)
			cursor++
		}
		core.FlushReport()
	}
	cycle() // warm the outbox free list and the core's scratch
	avg := testing.AllocsPerRun(100, cycle)
	// The irreducible allocations per cycle: the frontier slice and the
	// chunk its codes share (they leave the core inside the report), the
	// Report's interface boxing, and amortized trie growth in the long-lived
	// table.
	// Before the hot-path work this cycle averaged 53 allocs.
	if avg > 20 {
		t.Errorf("flush-report cycle allocates %.1f allocs per 8 completions + flush, want ≤ 20", avg)
	}
}
