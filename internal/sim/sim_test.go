package sim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"gossipbnb/internal/nemesis"
)

type payload int

func (p payload) Size() int { return int(p) }

// faults builds a schedule from specs in the nemesis grammar.
func faults(t testing.TB, specs ...string) *nemesis.Schedule {
	t.Helper()
	fs, err := nemesis.ParseAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	return nemesis.New(fs...)
}

func TestKernelOrdering(t *testing.T) {
	k := New(1)
	var order []int
	k.At(3, func() { order = append(order, 3) })
	k.At(1, func() { order = append(order, 1) })
	k.At(2, func() { order = append(order, 2) })
	k.Run(math.Inf(1))
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if k.Now() != 3 {
		t.Errorf("Now = %g, want 3", k.Now())
	}
	if k.Events() != 3 {
		t.Errorf("Events = %d, want 3", k.Events())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		k.At(1, func() { order = append(order, i) })
	}
	k.Run(math.Inf(1))
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of schedule order: %v", order)
		}
	}
}

// TestReservedSequenceKeepsItsPlace: an event scheduled under a reserved
// sequence number fires, among same-time events, where one scheduled at the
// reservation would have — however late it is scheduled, and after being
// re-armed under the same number — and When reports it while pending only.
func TestReservedSequenceKeepsItsPlace(t *testing.T) {
	k := New(1)
	var order []string
	mark := func(s string) func() { return func() { order = append(order, s) } }
	k.At(5, mark("before"))
	seq := k.Reserve()
	k.At(5, mark("after"))
	e := k.AtSeq(4, seq, mark("moved away"))
	if at, ok := e.When(); !ok || at != 4 {
		t.Fatalf("When = %g, %v; want 4, true", at, ok)
	}
	e.Cancel()
	if _, ok := e.When(); ok {
		t.Fatal("When reports a cancelled event as pending")
	}
	k.At(1, func() { k.AtSeq(5, seq, mark("reserved")) })
	k.Run(math.Inf(1))
	if want := []string{"before", "reserved", "after"}; !slices.Equal(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := New(1)
	hits := 0
	k.At(1, func() {
		k.After(1, func() {
			hits++
			if k.Now() != 2 {
				t.Errorf("nested event at %g, want 2", k.Now())
			}
		})
	})
	k.Run(math.Inf(1))
	if hits != 1 {
		t.Errorf("hits = %d", hits)
	}
}

func TestRunUntil(t *testing.T) {
	k := New(1)
	fired := 0
	k.At(1, func() { fired++ })
	k.At(10, func() { fired++ })
	k.Run(5)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if k.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", k.Pending())
	}
	k.Run(math.Inf(1))
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
}

func TestCancel(t *testing.T) {
	k := New(1)
	fired := false
	ev := k.At(1, func() { fired = true })
	ev.Cancel()
	k.Run(math.Inf(1))
	if fired {
		t.Error("cancelled event fired")
	}
	var zero Event
	zero.Cancel() // the zero handle must be a safe no-op
}

func TestCancelExcludedFromPending(t *testing.T) {
	k := New(1)
	ev := k.At(1, func() {})
	k.At(2, func() {})
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", k.Pending())
	}
	ev.Cancel()
	if k.Pending() != 1 {
		t.Errorf("Pending after Cancel = %d, want 1 (cancelled events are reclaimed eagerly)", k.Pending())
	}
	ev.Cancel() // double-cancel: no-op
	if k.Pending() != 1 {
		t.Errorf("Pending after double Cancel = %d, want 1", k.Pending())
	}
}

func TestStaleHandleCannotCancelReusedSlot(t *testing.T) {
	k := New(1)
	fired := 0
	ev := k.At(1, func() { fired++ })
	k.Run(math.Inf(1))
	// ev's slot is free; the next event reuses it. The stale handle must
	// not be able to cancel the newcomer.
	k.At(2, func() { fired++ })
	ev.Cancel()
	k.Run(math.Inf(1))
	if fired != 2 {
		t.Errorf("fired = %d, want 2 (stale Cancel hit a reused slot)", fired)
	}
}

func TestAfterArg(t *testing.T) {
	k := New(1)
	var got []int
	fn := func(v int) { got = append(got, v) }
	k.AfterArg(2, fn, 20)
	k.AfterArg(1, fn, 10)
	k.AfterArg(-1, fn, 0) // clamps to now, fires first
	k.Run(math.Inf(1))
	if len(got) != 3 || got[0] != 0 || got[1] != 10 || got[2] != 20 {
		t.Errorf("got = %v", got)
	}
}

// TestAtSeqArg: an argument-carrying event under a reserved sequence number
// fires where AtSeq's would, with its own argument, and a warm reschedule of
// it allocates nothing.
func TestAtSeqArg(t *testing.T) {
	k := New(1)
	var got []int
	fn := func(v int) { got = append(got, v) }
	k.AfterArg(3, fn, 1)
	seq := k.Reserve()
	k.AfterArg(3, fn, 3)
	k.AtSeqArg(3, seq, fn, 2)
	k.AtSeqArg(1, k.Reserve(), fn, 0)
	k.Run(math.Inf(1))
	if want := []int{0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
	cycle := func() {
		got = got[:0]
		for i := 0; i < 16; i++ {
			k.AtSeqArg(k.Now()+1, k.Reserve(), fn, i)
		}
		k.Run(math.Inf(1))
	}
	cycle()
	if a := testing.AllocsPerRun(20, cycle); a != 0 {
		t.Errorf("warm AtSeqArg schedule→fire allocates %.1f per 16 events, want 0", a)
	}
}

func TestDeliverTyped(t *testing.T) {
	k := New(1)
	var from NodeID
	var size int
	var at float64
	k.Deliver(1.5, func(f NodeID, m Message) { from, size, at = f, m.Size(), k.Now() }, 7, payload(42))
	ev := k.Deliver(1, func(NodeID, Message) { t.Error("cancelled delivery fired") }, 1, payload(1))
	ev.Cancel()
	k.Run(math.Inf(1))
	if from != 7 || size != 42 || at != 1.5 {
		t.Errorf("delivery = (from %d, size %d, at %g), want (7, 42, 1.5)", from, size, at)
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	k := New(1)
	k.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("At(past) did not panic")
			}
		}()
		k.At(1, func() {})
	})
	k.Run(math.Inf(1))
}

func TestNegativeAfterClamps(t *testing.T) {
	k := New(1)
	fired := false
	k.After(-5, func() { fired = true })
	k.Run(math.Inf(1))
	if !fired {
		t.Error("After(-5) never fired")
	}
}

func TestNetworkDelivery(t *testing.T) {
	k := New(1)
	nw := NewNetwork(k, PaperLatency())
	var got []int
	var at []float64
	nw.Register(2, func(from NodeID, m Message) {
		if from != 1 {
			t.Errorf("from = %d", from)
		}
		got = append(got, m.(payload).Size())
		at = append(at, k.Now())
	})
	nw.Register(1, func(NodeID, Message) {})
	nw.Send(1, 2, payload(100))
	k.Run(math.Inf(1))
	if len(got) != 1 || got[0] != 100 {
		t.Fatalf("got = %v", got)
	}
	want := 1.5e-3 + 5e-6*100 // paper model: 1.5 + 0.005·L ms
	if math.Abs(at[0]-want) > 1e-12 {
		t.Errorf("delivery at %g, want %g", at[0], want)
	}
	st := nw.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Bytes != 100 {
		t.Errorf("stats = %+v", st)
	}
	if nw.SentBytes(1) != 100 || nw.SentMessages(1) != 1 {
		t.Errorf("per-sender: bytes=%d msgs=%d", nw.SentBytes(1), nw.SentMessages(1))
	}
}

func TestRegisterMidRun(t *testing.T) {
	// Elastic membership registers nodes from inside event callbacks, after
	// the kernel has started firing: the handler table must grow on demand,
	// and both directions of traffic with the late endpoint must work. A send
	// to the identity before it registers is a normal drop, not an error.
	k := New(1)
	nw := NewNetwork(k, nil)
	var got, back []int
	nw.Register(0, func(from NodeID, m Message) { back = append(back, m.(payload).Size()) })
	nw.Send(0, 7, payload(1)) // nobody there yet: vanishes like any loss
	k.At(2, func() {
		nw.Register(7, func(from NodeID, m Message) {
			got = append(got, m.(payload).Size())
			nw.Send(7, 0, payload(int(m.(payload).Size())+1))
		})
		nw.Send(0, 7, payload(5))
	})
	k.Run(math.Inf(1))
	if len(got) != 1 || got[0] != 5 {
		t.Errorf("late node got = %v, want [5]", got)
	}
	if len(back) != 1 || back[0] != 6 {
		t.Errorf("reply to node 0 = %v, want [6]", back)
	}
	if st := nw.Stats(); st.Delivered != 2 {
		t.Errorf("Delivered = %d, want 2", st.Delivered)
	}
}

func TestCrashStopsDelivery(t *testing.T) {
	k := New(1)
	nw := NewNetwork(k, nil)
	delivered := 0
	nw.Register(1, func(NodeID, Message) { delivered++ })
	nw.Register(2, func(NodeID, Message) { delivered++ })
	nw.Crash(2)
	nw.Send(1, 2, payload(1)) // to dead
	nw.Send(2, 1, payload(1)) // from dead
	k.Run(math.Inf(1))
	if delivered != 0 {
		t.Errorf("delivered = %d, want 0", delivered)
	}
	st := nw.Stats()
	if st.ToDead != 1 {
		t.Errorf("ToDead = %d, want 1", st.ToDead)
	}
	if !nw.Crashed(2) || nw.Crashed(1) {
		t.Error("Crashed flags wrong")
	}
}

func TestCrashDuringFlightDropsAtDelivery(t *testing.T) {
	k := New(1)
	nw := NewNetwork(k, LinearLatency(1, 0)) // 1 s latency
	delivered := 0
	nw.Register(1, func(NodeID, Message) {})
	nw.Register(2, func(NodeID, Message) { delivered++ })
	nw.Send(1, 2, payload(1))
	k.At(0.5, func() { nw.Crash(2) }) // crashes while message in flight
	k.Run(math.Inf(1))
	if delivered != 0 {
		t.Error("message delivered to node that crashed in flight")
	}
}

func TestInFlightFromCrashedSenderStillDelivered(t *testing.T) {
	k := New(1)
	nw := NewNetwork(k, LinearLatency(1, 0))
	delivered := 0
	nw.Register(1, func(NodeID, Message) {})
	nw.Register(2, func(NodeID, Message) { delivered++ })
	nw.Send(1, 2, payload(1))
	k.At(0.5, func() { nw.Crash(1) }) // sender crashes after send
	k.Run(math.Inf(1))
	if delivered != 1 {
		t.Error("in-flight message from crashed sender was dropped; crash-stop halts the process, not the wire")
	}
}

func TestLoss(t *testing.T) {
	k := New(7)
	nw := NewNetwork(k, nil)
	nw.SetNemesis(faults(t, "loss:0.5"))
	delivered := 0
	nw.Register(1, func(NodeID, Message) {})
	nw.Register(2, func(NodeID, Message) { delivered++ })
	const n = 2000
	for i := 0; i < n; i++ {
		nw.Send(1, 2, payload(1))
	}
	k.Run(math.Inf(1))
	if delivered < n*2/5 || delivered > n*3/5 {
		t.Errorf("delivered %d of %d at 50%% loss", delivered, n)
	}
	st := nw.Stats()
	if st.Lost+int64(delivered) != n {
		t.Errorf("Lost=%d + delivered=%d != %d", st.Lost, delivered, n)
	}
}

// TestSetLossValidates: a loss probability built in code outside [0,1], or
// NaN, panics when the schedule is built — it must not silently run a
// different network.
func TestSetLossValidates(t *testing.T) {
	nw := NewNetwork(New(1), nil)
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("loss probability %g did not panic", p)
				}
			}()
			nw.SetNemesis(nemesis.New(nemesis.Fault{Kind: nemesis.Loss, Prob: p}))
		}()
	}
}

// TestPartition: a cut is judged once, at send time. A message sent just
// before the window opens is delivered inside it; one sent just before the
// window closes is cut although it would arrive after the heal.
func TestPartition(t *testing.T) {
	k := New(1)
	nw := NewNetwork(k, LinearLatency(0.1, 0))
	var delivered []float64
	nw.Register(1, func(NodeID, Message) {})
	nw.Register(2, func(NodeID, Message) { delivered = append(delivered, k.Now()) })
	nw.SetNemesis(faults(t, "partition:1-2:1")) // 1 isolated during [1, 2)
	// Send at t=0.5: delivers at 0.6 — before the partition.
	k.At(0.5, func() { nw.Send(1, 2, payload(1)) })
	// Send at t=0.95: sent before the cut, delivered at 1.05 inside it.
	k.At(0.95, func() { nw.Send(1, 2, payload(1)) })
	// Send at t=1.2: inside the partition, cut.
	k.At(1.2, func() { nw.Send(1, 2, payload(1)) })
	// Send at t=1.95: inside the partition, cut though it would land at 2.05.
	k.At(1.95, func() { nw.Send(1, 2, payload(1)) })
	// Send at t=2.5: after healing, delivers.
	k.At(2.5, func() { nw.Send(1, 2, payload(1)) })
	k.Run(math.Inf(1))
	if len(delivered) != 3 || delivered[1] < 1 {
		t.Fatalf("delivered at %v, want 0.6, 1.05 and 2.6", delivered)
	}
	if nw.Stats().Cut != 2 {
		t.Errorf("Cut = %d, want 2", nw.Stats().Cut)
	}
	// Nodes on the same side of the partition still communicate.
	nw2 := NewNetwork(k, nil)
	got := 0
	nw2.Register(3, func(NodeID, Message) { got++ })
	nw2.Register(4, func(NodeID, Message) {})
	nw2.SetNemesis(nemesis.New(nemesis.Fault{Kind: nemesis.Partition,
		End: virtual(k.Now() + 100), A: []int{3, 4}}))
	nw2.Send(4, 3, payload(1))
	k.Run(math.Inf(1))
	if got != 1 {
		t.Error("same-side message was cut")
	}
}

func TestDoubleRegisterPanics(t *testing.T) {
	nw := NewNetwork(New(1), nil)
	nw.Register(1, func(NodeID, Message) {})
	defer func() {
		if recover() == nil {
			t.Error("double Register did not panic")
		}
	}()
	nw.Register(1, func(NodeID, Message) {})
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, int64) {
		k := New(99)
		nw := NewNetwork(k, PaperLatency())
		nw.SetNemesis(faults(t, "loss:0.2"))
		count := int64(0)
		for id := NodeID(0); id < 5; id++ {
			id := id
			nw.Register(id, func(from NodeID, m Message) {
				count++
				if count < 200 {
					to := NodeID(k.Rand().Intn(5))
					nw.Send(id, to, payload(k.Rand().Intn(1000)))
				}
			})
		}
		nw.Send(0, 1, payload(10))
		nw.Send(0, 2, payload(10))
		return k.Run(math.Inf(1)), count
	}
	t1, c1 := run()
	t2, c2 := run()
	if t1 != t2 || c1 != c2 {
		t.Errorf("nondeterministic: (%g,%d) vs (%g,%d)", t1, c1, t2, c2)
	}
}

func TestPropEventsFireInOrder(t *testing.T) {
	f := func(times []float64) bool {
		k := New(1)
		var fired []float64
		for _, tm := range times {
			tm := math.Abs(tm)
			if math.IsNaN(tm) || math.IsInf(tm, 0) {
				continue
			}
			k.At(tm, func() { fired = append(fired, tm) })
		}
		k.Run(math.Inf(1))
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkKernelThroughput(b *testing.B) {
	k := New(1)
	b.ReportAllocs()
	var step func()
	n := 0
	step = func() {
		n++
		if n < b.N {
			k.After(1, step)
		}
	}
	k.After(1, step)
	b.ResetTimer()
	k.Run(math.Inf(1))
}

func TestRestoreRevivesDelivery(t *testing.T) {
	k := New(1)
	nw := NewNetwork(k, nil)
	got := 0
	nw.Register(1, func(from NodeID, msg Message) { got++ })
	nw.Crash(1)
	nw.Send(0, 1, payload(1)) // down: vanishes
	k.At(5, func() { nw.Restore(1) })
	k.At(6, func() { nw.Send(0, 1, payload(1)) }) // back: delivered
	k.Run(math.Inf(1))
	if nw.Crashed(1) {
		t.Error("Crashed(1) after Restore")
	}
	if got != 1 {
		t.Errorf("delivered %d messages, want 1 (only the post-restore send)", got)
	}
	st := nw.Stats()
	if st.ToDead != 1 || st.Delivered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRestoreDeliversInFlightStale(t *testing.T) {
	// A message in flight across a crash+restore window is delivered: the
	// wire does not know the process was away. The restarted process must
	// tolerate this stale delivery.
	k := New(1)
	nw := NewNetwork(k, LinearLatency(10, 0)) // 10 s in flight
	got := 0
	nw.Register(1, func(from NodeID, msg Message) { got++ })
	nw.Send(0, 1, payload(1)) // arrives at t=10
	k.At(2, func() { nw.Crash(1) })
	k.At(5, func() { nw.Restore(1) })
	k.Run(math.Inf(1))
	if got != 1 {
		t.Errorf("stale in-flight message delivered %d times, want 1", got)
	}
}

func TestDuplicateDelivery(t *testing.T) {
	k := New(3)
	nw := NewNetwork(k, nil)
	nw.SetNemesis(faults(t, "dup:1"))
	got := 0
	nw.Register(1, func(from NodeID, msg Message) { got++ })
	const n = 50
	for i := 0; i < n; i++ {
		nw.Send(0, 1, payload(1))
	}
	k.Run(math.Inf(1))
	if got != 2*n {
		t.Errorf("delivered %d, want %d (every message duplicated)", got, 2*n)
	}
	st := nw.Stats()
	if st.Duplicated != n || st.Sent != n {
		t.Errorf("stats = %+v", st)
	}
}

func TestReorderIsBoundedAndReorders(t *testing.T) {
	k := New(7)
	nw := NewNetwork(k, LinearLatency(1e-3, 0))
	nw.SetNemesis(faults(t, "reorder:0.5:50ms"))
	var order []int
	nw.Register(1, func(from NodeID, msg Message) { order = append(order, int(msg.Size())) })
	const n = 200
	for i := 0; i < n; i++ {
		i := i
		k.At(float64(i)*1e-3, func() { nw.Send(0, 1, payload(i)) })
	}
	end := k.Run(math.Inf(1))
	if len(order) != n {
		t.Fatalf("delivered %d of %d", len(order), n)
	}
	swapped := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			swapped++
		}
	}
	if swapped == 0 {
		t.Error("no reordering observed at p=0.5")
	}
	// Bounded: the last send is at (n-1) ms; nothing may arrive later than
	// send + latency + window.
	if maxEnd := float64(n-1)*1e-3 + 1e-3 + 0.05; end > maxEnd+1e-9 {
		t.Errorf("delivery at %g exceeds the reorder bound %g", end, maxEnd)
	}
	if st := nw.Stats(); st.Reordered == 0 {
		t.Error("Reordered counter stayed zero")
	}
}

func TestReplayDeliversStaleCopy(t *testing.T) {
	k := New(9)
	nw := NewNetwork(k, nil)
	nw.SetNemesis(faults(t, "replay:1:10"))
	var times []float64
	nw.Register(1, func(from NodeID, msg Message) { times = append(times, k.Now()) })
	nw.Send(0, 1, payload(1))
	k.Run(math.Inf(1))
	if len(times) != 2 {
		t.Fatalf("delivered %d times, want original + replay", len(times))
	}
	if times[1] < 10 || times[1] > 20 {
		t.Errorf("replay arrived at %g, want within [10, 20]", times[1])
	}
	if st := nw.Stats(); st.Replayed != 1 {
		t.Errorf("Replayed = %d", st.Replayed)
	}
}

func TestChaosProbabilityValidation(t *testing.T) {
	nw := NewNetwork(New(1), nil)
	for _, f := range []nemesis.Fault{
		{Kind: nemesis.Dup, Prob: -0.1},
		{Kind: nemesis.Reorder, Prob: 1.5, Delay: time.Second},
		{Kind: nemesis.Replay, Prob: 2, Delay: time.Second},
		{Kind: nemesis.Corrupt, Prob: math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v probability %g accepted", f.Kind, f.Prob)
				}
			}()
			nw.SetNemesis(nemesis.New(f))
		}()
	}
}

// TestNemesisCutSlowCorrupt: the schedule's non-random verdicts act on a
// send — a stall cuts both directions, a slow link adds its delay to the
// base latency, and a certain corruption drops the message under its own
// cause.
func TestNemesisCutSlowCorrupt(t *testing.T) {
	k := New(1)
	nw := NewNetwork(k, LinearLatency(0.1, 0))
	nw.SetNemesis(faults(t, "stall:3:0-1", "slow:1-2:250ms", "corrupt:1:2-3"))
	var at []float64
	for id := NodeID(1); id <= 3; id++ {
		nw.Register(id, func(NodeID, Message) { at = append(at, k.Now()) })
	}
	nw.Send(1, 3, payload(1))                       // stalled receiver: cut
	nw.Send(3, 1, payload(1))                       // stalled sender: cut
	nw.Send(2, 1, payload(1))                       // slow link: 0.1 + 0.25
	k.At(2.5, func() { nw.Send(1, 3, payload(1)) }) // corrupted
	k.At(1.5, func() { nw.Send(1, 3, payload(1)) }) // clean: 1.6
	k.Run(math.Inf(1))
	if len(at) != 2 || math.Abs(at[0]-0.35) > 1e-12 || math.Abs(at[1]-1.6) > 1e-12 {
		t.Errorf("delivered at %v, want [0.35 1.6]", at)
	}
	if st := nw.Stats(); st.Cut != 2 || st.Corrupt != 1 || st.Sent != 5 {
		t.Errorf("stats = %+v, want 2 cut, 1 corrupt of 5 sent", st)
	}
}
