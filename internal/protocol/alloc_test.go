package protocol

// Allocation regression guards for the report hot path. Sending: one full
// cycle — a batch of leaf completions entering table and outbox, then
// FlushReport taking the outbox's snapshot and recycling the outbox — stays
// within a small constant allocation budget. Before the hot-path work
// (ISSUE 3) the same cycle allocated a fresh outbox table plus one clone per
// trie edge per flush. Receiving: merging a stream of snapshot-bodied reports
// into a table allocates only what the table grows by.

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
	// The irreducible allocations per cycle: the snapshot — a table header
	// and one arena copy, which leave the core inside the report, and the
	// outbox's compaction when its free vertices outnumber its live ones —
	// the Report's interface boxing, and amortized trie growth in the
	// long-lived table.
	// Before the hot-path work this cycle averaged 53 allocs.
	if avg > 20 {
		t.Errorf("flush-report cycle allocates %.1f allocs per 8 completions + flush, want ≤ 20", avg)
	}
}

// TestSetMessageSizingAllocs: the set messages a core sends most often carry a
// shared table — the termination report the complete one (RootReport), a
// diff-mode table push the empty one — so sizing them, once per recipient,
// reads the sums that table keeps and allocates nothing.
func TestSetMessageSizingAllocs(t *testing.T) {
	push := &lastSender{}
	New(0, Config{DiffGossip: true}, Deps{
		Clock:    &fakeClock{},
		Sender:   push,
		Expander: fakeTree{depth: 4},
		Peers:    func() []NodeID { return []NodeID{1} },
		Rand:     func(n int) int { return 0 },
	}).SendTable(1)
	for _, m := range []Msg{RootReport(1, 2), push.m} {
		if buf, err := Encode(nil, m); err != nil || len(buf) != m.Size() {
			t.Fatalf("%s: Size() %d, encodes to %d bytes (%v)", KindName(m.Kind()), m.Size(), len(buf), err)
		}
		if a := testing.AllocsPerRun(100, func() { _ = m.Size() }); a != 0 {
			t.Errorf("%s: sizing allocates %v times, want 0", KindName(m.Kind()), a)
		}
	}
}

// counterItems returns the leaves of the depth-d fakeTree in binary-counter
// order, so that contraction keeps the tables that take them small.
func counterItems(depth int) []Item {
	items := make([]Item, 0, 1<<depth)
	for i := 0; i < 1<<depth; i++ {
		c := code.Root()
		for d := 0; d < depth; d++ {
			c = c.Child(uint32(d+1), uint8(i>>(depth-1-d))&1)
		}
		items = append(items, Item{Code: c})
	}
	return items
}

// lastSender keeps the last message sent.
type lastSender struct{ m Msg }

func (s *lastSender) Send(to NodeID, m Msg) { s.m = m }

// newReportCore returns a core whose reports go to s alone, flushed only
// when the caller says.
func newReportCore(s Sender) *Core {
	return New(0, Config{ReportBatch: 1 << 20, ReportFanout: 1}, Deps{
		Clock:    &fakeClock{},
		Sender:   s,
		Expander: fakeTree{depth: 12},
		Peers:    func() []NodeID { return []NodeID{1} },
		Rand:     func(n int) int { return 0 },
	})
}

// TestMergeReportStreamAllocs: the receiving half of the report path. A core
// that merges a stream of snapshot-bodied reports — each a few codes, the
// outbox of eight completions of which some were pruned — merges each trie
// into its table without materialising a code, so once its arena has grown
// the stream costs nothing.
func TestMergeReportStreamAllocs(t *testing.T) {
	send := &lastSender{}
	sender := newReportCore(send)
	var stream []Msg
	leaf := Outcome{Feasible: true, Value: 1}
	for i, it := range counterItems(12) {
		if i%3 != 0 {
			sender.OnExpanded(it, leaf, 0.01)
		}
		if i%8 == 7 {
			sender.FlushReport()
			stream = append(stream, send.m)
		}
	}
	if r := stream[1].(Report); r.Snapshot() == nil || r.Len() < 2 {
		t.Fatalf("the stream's reports carry %d codes, snapshot %v", r.Len(), r.Snapshot() != nil)
	}
	receiver := newReportCore(discardSender{})
	merge := func() {
		receiver.Table().Reset()
		for _, m := range stream[:len(stream)-1] { // not the last: the table stays open
			receiver.HandleMessage(0, m)
		}
	}
	merge() // grow the arena once
	if avg := testing.AllocsPerRun(20, merge); avg > 0 {
		t.Errorf("merging %d reports allocates %.1f, want 0", len(stream)-1, avg)
	}
	if receiver.Table().Complete() || receiver.Table().Len() == 0 {
		t.Fatalf("the receiver's table holds %d codes, complete %v", receiver.Table().Len(), receiver.Table().Complete())
	}
}

// TestPooledCodeGuardAllocs: the pooled-code guard rebuilds its set from the
// pool on every grant and every recovery adoption, and a duplicated grant or
// an adoption of regions already pooled is exactly when it runs over a full
// pool. Once the set's arena has grown to the pool, neither allocates. (A
// map keyed by encoded codes allocates a string per pooled code per rebuild.)
func TestPooledCodeGuardAllocs(t *testing.T) {
	e := newEnv(t, 8, Config{}, []NodeID{1})
	var regions []code.Code
	for _, it := range counterItems(4) {
		regions = append(regions, it.Code)
	}
	if got := e.core.Adopt(regions); got != len(regions) {
		t.Fatalf("Adopt re-created %d of %d regions", got, len(regions))
	}
	var grant Msg = WorkGrant{Codes: regions, Incumbent: 1e9}
	e.core.HandleMessage(1, grant) // grow the set's arena once
	if a := testing.AllocsPerRun(100, func() { e.core.HandleMessage(1, grant) }); a != 0 {
		t.Errorf("a duplicated grant of %d pooled codes allocates %.1f, want 0", len(regions), a)
	}
	if a := testing.AllocsPerRun(100, func() { e.core.Adopt(regions) }); a != 0 {
		t.Errorf("adopting %d pooled regions allocates %.1f, want 0", len(regions), a)
	}
	if e.core.PoolLen() != len(regions) {
		t.Fatalf("pool = %d, want %d: the guard let a pooled code in twice", e.core.PoolLen(), len(regions))
	}
}

// BenchmarkReportRoundTrip times one report the whole way: FlushReport of
// eight completions, Encode, DecodeInstance and the receiver's HandleMessage.
func BenchmarkReportRoundTrip(b *testing.B) {
	send := &lastSender{}
	sender, receiver := newReportCore(send), newReportCore(discardSender{})
	items := counterItems(12)
	leaf := Outcome{Feasible: true, Value: 1}
	var buf []byte
	bytes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(len(items)/8) == 0 {
			sender.Table().Reset()
			receiver.Table().Reset()
		}
		for k := 0; k < 8; k++ {
			if j := i*8%len(items) + k; j%3 != 0 {
				sender.OnExpanded(items[j], leaf, 0.01)
			}
		}
		sender.FlushReport()
		var err error
		if buf, err = Encode(buf[:0], send.m); err != nil {
			b.Fatal(err)
		}
		_, m, _, err := DecodeInstance(buf)
		if err != nil {
			b.Fatal(err)
		}
		receiver.HandleMessage(0, m)
		bytes += len(buf)
	}
	b.ReportMetric(float64(bytes)/float64(b.N), "wire-B/op")
}
