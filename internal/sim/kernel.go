// Package sim is a deterministic discrete-event simulation kernel, the
// substitute for the Parsec simulation language the paper used (§6.2).
// Processes are modeled by objects whose interactions are timestamped
// message exchanges; virtual time advances from event to event, so 75
// simulated hours of B&B cost only as much wall-clock time as the events
// they contain.
//
// Determinism: a single seeded random source drives every stochastic choice
// (latencies, loss, peer selection through user code), and simultaneous
// events fire in schedule order, so a given (scenario, seed) pair always
// produces the same run — unlike the original Parsec experiments, ours are
// exactly reproducible.
//
// The scheduler is allocation-free in steady state: events live in an
// index-addressed arena recycled through a free list, the priority queue is
// an inlined monomorphic 4-ary min-heap of arena indices (no interface
// boxing, no per-event heap nodes), and handles are generation-counted
// values, so schedule→fire→reclaim costs zero heap allocations once the
// arena is warm. Callback-free scheduling variants (Deliver, AfterArg) let
// hot callers avoid the per-event capture closure too.
package sim

import (
	"math"
	"math/rand"
)

// Kernel is the event scheduler. Create one with New, schedule events with
// At/After/AfterArg/Deliver, then call Run. A Kernel is single-goroutine by
// construction.
type Kernel struct {
	now   float64
	seq   uint64
	rng   *rand.Rand
	fired uint64

	// The arena holds every scheduled (and recycled) event; heap orders
	// live events by (time, seq) as indices into the arena; free lists
	// reclaimed slots. Cancelled events are removed from the heap eagerly,
	// so heap length is exactly the pending-event count and a cancelled
	// event pins neither queue space nor its callback.
	//
	// The arena is paged, not one contiguous slice: simulations spike to
	// millions of simultaneously-pending events (a termination broadcast
	// puts procs² messages in flight), and growing a contiguous arena
	// through that spike re-zeroes and copies hundreds of megabytes. A new
	// page costs one fixed-size allocation and touches nothing that exists.
	//
	// Each slot is split across two parallel page arrays: the 24-byte
	// pointer-free key (time, seq, heap position, generation) that the sift
	// loops chase, and the payload (callback, message) they never need.
	// The split keeps key pages out of the garbage collector's scan set
	// entirely and packs 3.6× more keys per cache line than whole slots
	// would, which is most of the kernel's speed at millions of pending
	// events.
	keys     []*keyPage
	payloads []*payloadPage
	arenaLen int32 // slots handed out so far (== high-water pending events)
	heap     []int32
	free     []int32

	hook func(t float64, seq uint64)
}

// Arena page geometry: 2048 slots per page (48 KB of keys, 128 KB of
// payloads).
const (
	pageShift = 11
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type keyPage [pageSize]slotKey
type payloadPage [pageSize]slotPayload

// key returns the ordering record for slot idx.
func (k *Kernel) key(idx int32) *slotKey {
	return &k.keys[idx>>pageShift][idx&pageMask]
}

// payload returns the callback record for slot idx.
func (k *Kernel) payload(idx int32) *slotPayload {
	return &k.payloads[idx>>pageShift][idx&pageMask]
}

// slot kinds: which payload fields of a slot are live.
const (
	kindFunc = iota // fn()
	kindArg         // argFn(arg)
	kindMsg         // h(from, msg)
)

// slotKey is the pointer-free half of an arena slot: everything the heap
// needs to order and address it. gen counts reuses of the slot so stale
// Event handles (fired or cancelled) are detected exactly.
type slotKey struct {
	time    float64
	seq     uint64
	heapPos int32
	gen     uint32
}

// slotPayload is what fires: a tagged union — exactly one of fn / argFn / h
// is set, per kind.
type slotPayload struct {
	fn    func()
	argFn func(int)
	arg   int
	h     Handler
	from  NodeID
	msg   Message
	kind  uint8
}

// New returns a kernel at virtual time 0 with a deterministic random source.
func New(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// Rand returns the kernel's random source. All stochastic decisions in a
// simulation must draw from it to keep runs reproducible.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Events returns the number of events fired so far.
func (k *Kernel) Events() uint64 { return k.fired }

// SetFireHook installs fn to observe every fired event's (time, seq) just
// before its callback runs. Golden event-order tests hash the observed stream
// to pin the kernel's exact firing order across rewrites; a driver may also
// use it to yield the processor every so many events. A nil fn removes the
// hook; fn may remove it too.
func (k *Kernel) SetFireHook(fn func(t float64, seq uint64)) { k.hook = fn }

// Event is a value handle to a scheduled event; Cancel prevents it from
// firing. The zero Event is valid and cancels nothing. Handles stay safe
// after the event fires or its slot is reused: the generation counter makes
// a stale Cancel an exact no-op.
type Event struct {
	k   *Kernel
	idx int32
	gen uint32
}

// Cancel removes the event from the schedule: it will not fire, it no
// longer counts as pending, and its slot (and callback) are reclaimed
// immediately. Cancelling the zero Event, an already-fired event, or an
// already-cancelled event is a no-op.
func (e Event) Cancel() {
	k := e.k
	if k == nil {
		return
	}
	s := k.key(e.idx)
	if s.gen != e.gen {
		return // already fired, cancelled, or slot reused
	}
	pos := s.heapPos
	k.removeAt(pos)
	k.release(e.idx)
}

// When returns the virtual time the event is due at, and whether it is still
// pending — false once it fired or was cancelled.
func (e Event) When() (float64, bool) {
	if e.k == nil {
		return 0, false
	}
	s := e.k.key(e.idx)
	if s.gen != e.gen {
		return 0, false
	}
	return s.time, true
}

// Reserve draws the next sequence number without scheduling anything. An
// event later scheduled under it with AtSeqArg fires, among the events due
// at its time, where one scheduled at the moment of the draw would have.
func (k *Kernel) Reserve() uint64 {
	k.seq++
	return k.seq - 1
}

// AtSeqArg schedules fn(arg) at t under a sequence number drawn by Reserve.
// The caller keeps the number unique among pending events: one reservation,
// one pending event. A caller that keeps one callback for many events passes
// what tells them apart in arg.
func (k *Kernel) AtSeqArg(t float64, seq uint64, fn func(int), arg int) Event {
	idx := k.allocSeq(t, seq)
	p := k.payload(idx)
	p.kind = kindArg
	p.argFn = fn
	p.arg = arg
	return Event{k: k, idx: idx, gen: k.key(idx).gen}
}

// alloc pops a free slot (or grows the arena) and stamps it with the next
// sequence number at time t. It returns the slot's index.
func (k *Kernel) alloc(t float64) int32 {
	return k.allocSeq(t, k.Reserve())
}

// allocSeq is alloc under a given sequence number.
func (k *Kernel) allocSeq(t float64, seq uint64) int32 {
	if t < k.now {
		panic("sim: scheduling into the past")
	}
	var idx int32
	if n := len(k.free); n > 0 {
		idx = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		if int(k.arenaLen)>>pageShift == len(k.keys) {
			k.keys = append(k.keys, new(keyPage))
			k.payloads = append(k.payloads, new(payloadPage))
		}
		idx = k.arenaLen
		k.arenaLen++
	}
	s := k.key(idx)
	s.time = t
	s.seq = seq
	k.push(idx)
	return idx
}

// release recycles a slot that left the heap (fired or cancelled): the
// generation bump invalidates outstanding handles, and the payload is
// cleared so the arena does not pin dead callbacks or messages.
func (k *Kernel) release(idx int32) {
	k.key(idx).gen++
	p := k.payload(idx)
	p.fn = nil
	p.argFn = nil
	p.h = nil
	p.msg = nil
	k.free = append(k.free, idx)
}

// At schedules fn at absolute virtual time t. Scheduling in the past panics:
// it would silently reorder causality.
func (k *Kernel) At(t float64, fn func()) Event {
	idx := k.alloc(t)
	p := k.payload(idx)
	p.kind = kindFunc
	p.fn = fn
	return Event{k: k, idx: idx, gen: k.key(idx).gen}
}

// After schedules fn d seconds from now.
func (k *Kernel) After(d float64, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// AfterArg schedules fn(arg) d seconds from now. Passing the argument
// through the event instead of a capture closure lets hot call sites reuse
// one pre-bound callback for every schedule — zero allocations per event.
// The canonical use is an incarnation counter: a driver schedules
// AfterArg(d, n.doneFn, n.incarn) and the callback discards the fire if the
// process was reborn in between.
func (k *Kernel) AfterArg(d float64, fn func(int), arg int) Event {
	if d < 0 {
		d = 0
	}
	return k.AtSeqArg(k.now+d, k.Reserve(), fn, arg)
}

// Deliver schedules h(from, msg) d seconds from now — the typed delivery
// event. The network schedules every message through this instead of a
// per-message capture closure; the payload rides in the pooled event slot.
func (k *Kernel) Deliver(d float64, h Handler, from NodeID, msg Message) Event {
	if d < 0 {
		d = 0
	}
	idx := k.alloc(k.now + d)
	p := k.payload(idx)
	p.kind = kindMsg
	p.h = h
	p.from = from
	p.msg = msg
	return Event{k: k, idx: idx, gen: k.key(idx).gen}
}

// Run fires events in (time, seq) order until the queue drains or the next
// event's time would exceed until (use math.Inf(1) for no limit). It
// returns the final virtual time — the time of the last event fired. When
// the queue drains before until, the clock does NOT advance to until: a
// drained schedule means nothing further can ever happen, so the run is
// over at the last event, and Pending()==0 tells the caller which case
// occurred.
func (k *Kernel) Run(until float64) float64 {
	for len(k.heap) > 0 {
		if k.key(k.heap[0]).time > until {
			break
		}
		k.step()
	}
	return k.now
}

// step fires the root of the heap: copy the payload out, recycle the slot
// BEFORE dispatching — the callback may schedule new events, and handing it
// this very slot back is what makes the steady-state cycle allocation-free.
func (k *Kernel) step() {
	idx := k.heap[0]
	s := k.key(idx)
	t, seq := s.time, s.seq
	p := k.payload(idx)
	kind := p.kind
	fn, argFn, arg := p.fn, p.argFn, p.arg
	h, from, msg := p.h, p.from, p.msg
	k.removeAt(0)
	k.release(idx)
	k.now = t
	k.fired++
	if k.hook != nil {
		k.hook(t, seq)
	}
	switch kind {
	case kindFunc:
		fn()
	case kindArg:
		argFn(arg)
	default:
		h(from, msg)
	}
}

// NextTime returns the virtual time of the earliest pending event, or
// +Inf when the queue is empty. The parallel coordinator uses it to compute
// the global lower bound T that anchors each conservative window.
func (k *Kernel) NextTime() float64 {
	if len(k.heap) == 0 {
		return math.Inf(1)
	}
	return k.key(k.heap[0]).time
}

// RunWindow fires events while their time is strictly below before and at
// most until, in (time, seq) order, and returns the new current time. It is
// Run restricted to the half-open window [now, min(before, until+)): the
// conservative-lookahead barrier guarantees no cross-shard message can
// arrive before the horizon, so everything strictly inside it is safe to
// fire without synchronization.
func (k *Kernel) RunWindow(before, until float64) float64 {
	for len(k.heap) > 0 {
		t := k.key(k.heap[0]).time
		if t >= before || t > until {
			break
		}
		k.step()
	}
	return k.now
}

// DeliverAt schedules h(from, msg) at absolute virtual time t, clamped to
// now — the cross-shard drain path: a mailbox message carries the absolute
// arrival time stamped by the sending shard, and the lookahead barrier
// guarantees t is (weakly) ahead of every receiving shard's clock.
func (k *Kernel) DeliverAt(t float64, h Handler, from NodeID, msg Message) Event {
	if t < k.now {
		t = k.now
	}
	idx := k.alloc(t)
	p := k.payload(idx)
	p.kind = kindMsg
	p.h = h
	p.from = from
	p.msg = msg
	return Event{k: k, idx: idx, gen: k.key(idx).gen}
}

// Pending returns the number of scheduled events still due to fire.
// Cancelled events are reclaimed eagerly and never counted.
func (k *Kernel) Pending() int { return len(k.heap) }

// --- the 4-ary min-heap -------------------------------------------------------
//
// The queue is a monomorphic 4-ary min-heap of arena indices ordered by
// (time, seq); seq breaks ties FIFO and is unique, so comparisons are
// strict. 4-ary beats binary here: sift-down — the hot direction, every
// fired event pays one — does ~half the levels for the same comparison
// count, and the child scan is four sequential slot reads. Each slot tracks
// its heap position so Cancel removes in O(log₄ n) without searching.

// push appends idx and restores the heap property upward.
func (k *Kernel) push(idx int32) {
	k.heap = append(k.heap, idx)
	k.siftUp(len(k.heap) - 1)
}

// removeAt deletes the entry at heap position pos (the slot itself is NOT
// released — Run still needs its payload; Cancel releases separately).
func (k *Kernel) removeAt(pos int32) {
	n := len(k.heap) - 1
	last := k.heap[n]
	k.heap = k.heap[:n]
	if int(pos) == n {
		return
	}
	k.heap[pos] = last
	k.key(last).heapPos = pos
	if !k.siftDown(int(pos)) {
		k.siftUp(int(pos))
	}
}

// siftUp moves heap[pos] toward the root until its parent is smaller. The
// moving entry's key is held in registers; comparisons are strict because
// seq is unique.
func (k *Kernel) siftUp(pos int) {
	h := k.heap
	idx := h[pos]
	s := k.key(idx)
	t, q := s.time, s.seq
	for pos > 0 {
		parent := (pos - 1) / 4
		p := k.key(h[parent])
		if p.time < t || (p.time == t && p.seq < q) {
			break
		}
		h[pos] = h[parent]
		p.heapPos = int32(pos)
		pos = parent
	}
	h[pos] = idx
	s.heapPos = int32(pos)
}

// siftDown moves heap[pos] toward the leaves, swapping with its smallest
// child while one is smaller. It reports whether the entry moved.
func (k *Kernel) siftDown(pos int) bool {
	h := k.heap
	n := len(h)
	idx := h[pos]
	s := k.key(idx)
	t, q := s.time, s.seq
	start := pos
	for {
		first := 4*pos + 1
		if first >= n {
			break
		}
		best := first
		bs := k.key(h[first])
		bt, bq := bs.time, bs.seq
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			cs := k.key(h[c])
			if cs.time < bt || (cs.time == bt && cs.seq < bq) {
				best, bs, bt, bq = c, cs, cs.time, cs.seq
			}
		}
		if t < bt || (t == bt && q < bq) {
			break
		}
		h[pos] = h[best]
		bs.heapPos = int32(pos)
		pos = best
	}
	h[pos] = idx
	s.heapPos = int32(pos)
	return pos > start
}
