package sim

// Allocation regression guards for the event kernel (ISSUE 5): once the
// arena is warm, scheduling and firing events — through every variant: the
// compat closure path with a pre-bound callback, AfterArg, typed delivery,
// and cancellation — performs zero heap allocations. If a change
// legitimately needs to allocate here, it has to argue with this file
// first.

import (
	"math"
	"testing"
)

// TestScheduleFireSteadyStateAllocs: a warm schedule→fire→reclaim cycle is
// allocation-free for every scheduling variant.
func TestScheduleFireSteadyStateAllocs(t *testing.T) {
	k := New(1)
	fn := func() {}
	argFn := func(int) {}
	h := func(NodeID, Message) {}
	var msg Message = payload(1)
	warm := func() {
		for i := 0; i < 64; i++ {
			k.After(0.5, fn)
			k.AfterArg(0.25, argFn, i)
			k.Deliver(0.75, h, NodeID(i), msg)
		}
		k.Run(math.Inf(1))
	}
	warm() // grows arena pages, heap, and free list to steady-state size
	if avg := testing.AllocsPerRun(50, warm); avg > 0 {
		t.Errorf("steady-state schedule→fire→reclaim allocates: %.1f allocs per 192-event cycle, want 0", avg)
	}
}

// TestCancelSteadyStateAllocs: cancelling reclaims through the free list
// without allocating, including the handle itself (a value, not a boxed
// pointer).
func TestCancelSteadyStateAllocs(t *testing.T) {
	k := New(1)
	fn := func() {}
	cycle := func() {
		evs := [64]Event{}
		for i := range evs {
			evs[i] = k.After(1, fn)
		}
		for i := range evs {
			evs[i].Cancel()
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(50, cycle); avg > 0 {
		t.Errorf("steady-state schedule→cancel allocates: %.1f allocs per 64-event cycle, want 0", avg)
	}
}

// TestNetworkSendSteadyStateAllocs: a warm Network delivers messages with
// zero allocations per send — the typed delivery event replaces the
// per-message capture closure — on a well-behaved network and under a
// loss/dup/reorder schedule, whose judgement is a value, not a heap object.
func TestNetworkSendSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		name  string
		specs []string
	}{
		{"clean", nil},
		{"loss-dup-reorder", []string{"loss:0.05", "dup:0.05", "reorder:0.05"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := New(1)
			nw := NewNetwork(k, PaperLatency())
			if c.specs != nil {
				nw.SetNemesis(faults(t, c.specs...))
			}
			got := 0
			nw.Register(1, func(NodeID, Message) {})
			nw.Register(2, func(NodeID, Message) { got++ })
			var msg Message = payload(3)
			cycle := func() {
				for i := 0; i < 64; i++ {
					nw.Send(1, 2, msg)
				}
				k.Run(math.Inf(1))
			}
			cycle()
			if avg := testing.AllocsPerRun(50, cycle); avg > 0 {
				t.Errorf("steady-state Send→deliver allocates: %.1f allocs per 64-message cycle, want 0", avg)
			}
			if got == 0 {
				t.Fatal("nothing delivered")
			}
		})
	}
}
