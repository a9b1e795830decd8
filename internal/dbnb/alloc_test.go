package dbnb

import (
	"reflect"
	"testing"

	"gossipbnb/internal/code"
	"gossipbnb/internal/protocol"
	"gossipbnb/internal/sim"
)

// The per-process handler is the simulator's hottest driver code: the
// 10 000-process tier delivers ~10⁸ messages per solve, almost all of them
// termination reports landing on processes that already terminated. These
// guards pin what that path costs — nothing on the heap — and that a
// single-instance process has no demultiplexer in front of its context.

// deliveryHarness builds a 4-process harness without running it: one
// untagged instance, or two tagged ones.
func deliveryHarness(tagged bool, shards int) *harness {
	k, ref := shardKnapsack()
	cfg := Config{Procs: 4, Seed: 1, Prune: true, Shards: shards}
	w := problemWorkload(k, ref)
	if !tagged {
		return newHarness(cfg, []*spec{{w: w}}, false)
	}
	return newHarness(cfg, []*spec{{id: 1, idx: 0, w: w}, {id: 2, idx: 1, w: w}}, true)
}

func rootReport() protocol.Msg {
	return protocol.Report{Codes: []code.Code{code.Root()}}
}

func TestDeliverToTerminatedAllocs(t *testing.T) {
	h := deliveryHarness(false, 1)
	n := h.nodes[2]
	n.started, n.done = true, true
	handle := h.handler(2)
	var msg sim.Message = rootReport()
	if a := testing.AllocsPerRun(1000, func() { handle(1, msg) }); a != 0 {
		t.Errorf("Report into a terminated untagged context: %v allocs, want 0", a)
	}
	if len(n.inbox) != 0 {
		t.Errorf("terminated context queued %d reports, want the fast drop", len(n.inbox))
	}
}

func TestDeliverTaggedWhileBusyAllocs(t *testing.T) {
	h := deliveryHarness(true, 1)
	n := h.contexts(2)[1]
	n.started, n.busy = true, true
	n.inbox = make([]inMsg, 0, 16)
	handle := h.handler(2)
	var msg sim.Message = protocol.InstMsg{Instance: 2, Msg: rootReport()}
	a := testing.AllocsPerRun(1000, func() {
		n.inbox = n.inbox[:0]
		for i := 0; i < 8; i++ {
			handle(1, msg)
		}
	})
	if a != 0 {
		t.Errorf("InstMsg into a busy tagged context: %v allocs per 8 deliveries, want 0", a)
	}
	if len(n.inbox) != 8 || n.wake {
		t.Errorf("busy context: inbox %d (want 8 queued), wake scheduled %v (want none)", len(n.inbox), n.wake)
	}
	if other := h.contexts(2)[0]; len(other.inbox) != 0 {
		t.Errorf("instance 1's context received %d of instance 2's messages", len(other.inbox))
	}
}

// TestExpansionLedgerAllocs: booking a fresh expansion into a warm ledger —
// one whose arena has already grown — allocates nothing, and neither does
// booking a redundant one. (A map keyed by encoded codes allocates a string
// per first-time expansion.)
func TestExpansionLedgerAllocs(t *testing.T) {
	h := deliveryHarness(false, 1)
	n := h.nodes[0]
	var codes []code.Code
	for i := 0; i < 1<<8; i++ {
		c := code.Root()
		for d := 0; d < 8; d++ {
			c = c.Child(uint32(d+1), uint8(i>>(7-d))&1)
			codes = append(codes, c) // inner codes more than once: redundant bookings
		}
	}
	book := func() {
		n.record().expanded.Reset()
		n.met.Redundant = 0
		for _, c := range codes {
			n.noteExpansion(c)
		}
	}
	book() // grow the ledger's arena once
	if a := testing.AllocsPerRun(20, book); a != 0 {
		t.Errorf("booking %d expansions into a warm ledger allocates %.1f, want 0", len(codes), a)
	}
	if unique := 1<<9 - 2; n.record().expanded.Len() != unique || n.met.Redundant != len(codes)-unique {
		t.Errorf("ledger holds %d codes, %d redundant bookings; want %d, %d",
			n.record().expanded.Len(), n.met.Redundant, unique, len(codes)-unique)
	}
}

// TestSingleInstanceHandlerIsDeliver: what a single-instance process
// registers with the network is its context's bound deliver method itself —
// not a closure around it — on both kernels; only a multi-instance process
// gets the demultiplexer.
func TestSingleInstanceHandlerIsDeliver(t *testing.T) {
	codePtr := func(f sim.Handler) uintptr { return reflect.ValueOf(f).Pointer() }
	for _, S := range []int{0, 1} {
		h := deliveryHarness(false, S)
		if codePtr(h.handler(2)) != codePtr(h.nodes[2].deliver) {
			t.Errorf("Shards=%d: single-instance handler is not node.deliver", S)
		}
	}
	h := deliveryHarness(true, 1)
	if codePtr(h.handler(2)) == codePtr(h.contexts(2)[0].deliver) {
		t.Error("multi-instance handler bypasses the demultiplexer")
	}
}
