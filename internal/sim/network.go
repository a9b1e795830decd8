package sim

import (
	"fmt"
	"math"
	"time"

	"gossipbnb/internal/nemesis"
)

// NodeID identifies a simulated process. IDs are dense small integers: the
// network's per-node tables are slices indexed by NodeID, not maps.
type NodeID int

// Message is a network payload. Size drives the communication-cost model;
// implementations should report their wire size, not their in-memory size.
type Message interface{ Size() int }

// Handler receives delivered messages.
type Handler func(from NodeID, msg Message)

// LatencyModel maps a message size in bytes to a one-way delay in seconds.
// Models must be monotone non-decreasing in size: the sharded mesh derives
// its safe lookahead from the zero-byte latency, which must lower-bound
// every real delay.
type LatencyModel func(bytes int) float64

// LinearLatency returns the paper's communication model: base + perByte·L,
// both in seconds. The paper's experiments use 1.5 ms + 0.005 ms/byte —
// PaperLatency.
func LinearLatency(base, perByte float64) LatencyModel {
	return func(bytes int) float64 { return base + perByte*float64(bytes) }
}

// PaperLatency is the model used throughout the paper's evaluation:
// 1.5 + 0.005·L milliseconds for messages of size L bytes.
func PaperLatency() LatencyModel { return LinearLatency(1.5e-3, 5e-6) }

// Network delivers messages between registered nodes under a latency model
// and crash failures; SetNemesis adds the link faults of §4 — cuts, slow
// links, loss, corruption, duplication, bounded reordering and stale replay
// — in the one fault vocabulary the live runtime also speaks, widening the
// default well-behaved network into the full adversarial model.
//
// A Network is single-goroutine, like its Kernel. In a sharded Mesh every
// shard owns one Network; each mutates only its own counters and tables
// (merged read-only at Stats time), which is what makes the parallel run
// race-free by construction rather than by locking.
type Network struct {
	k       *Kernel
	latency LatencyModel
	// linkLatency optionally refines latency per (from, to) pair — see
	// SetLinkLatency. nil means the size-only model applies everywhere.
	linkLatency func(from, to NodeID, bytes int) float64
	// nem judges every send; nil is a well-behaved network. reorderWindow
	// is the hold-back bound, in seconds, for a reorder fault that names
	// none.
	nem           *nemesis.Schedule
	reorderWindow float64
	handlers      []Handler
	crashed       []bool
	stats         nemesis.NetStats
	// deliverTo caches one destination-bound delivery callback per receiver,
	// so scheduling a message costs no capture closure: the kernel's typed
	// delivery event carries (callback, from, msg) in its pooled slot, and
	// the callback closes over only the destination — allocated once per
	// node ever, not once per message.
	deliverTo []Handler

	// mesh/self route cross-shard traffic when this network is one shard of
	// a Mesh: a Send whose destination lives on another shard is stamped
	// with its absolute arrival time and enqueued in the shard-pair mailbox
	// instead of the local kernel. Both are nil/0 for a standalone Network.
	mesh *Mesh
	self int
}

// NewNetwork creates a network on k with the given latency model.
// A nil model means zero latency.
func NewNetwork(k *Kernel, latency LatencyModel) *Network {
	if latency == nil {
		latency = func(int) float64 { return 0 }
	}
	return &Network{k: k, latency: latency}
}

// SetLinkLatency installs a per-link latency model: f(from, to, bytes)
// replaces the size-only model for unicast delays, enabling non-uniform
// topologies (e.g. two clusters separated by a high-latency WAN link). f must
// never return less than the base model's latency(0) on a mesh of several
// shards — their lookahead is derived from it. A one-shard mesh and a
// standalone Network have no lookahead bound. BroadcastRange keeps the base
// model, so a caller with a link model installed must Send per recipient.
func (n *Network) SetLinkLatency(f func(from, to NodeID, bytes int) float64) {
	n.linkLatency = f
}

// delayFor resolves the one-way delay for a unicast message.
func (n *Network) delayFor(from, to NodeID, sz int) float64 {
	if n.linkLatency != nil {
		return n.linkLatency(from, to, sz)
	}
	return n.latency(sz)
}

// SetNemesis installs the fault schedule every later send is judged
// against, once, at send time and virtual now — as the live link judges at
// send time and wall-clock now. A message in flight when a fault starts is
// not re-judged at delivery. Windows are virtual seconds. A reorder fault
// without a window holds a message back by up to 10× the base latency of an
// empty message, or 10 ms under a zero-latency model; a replay fault
// without a delay replays between 1 and 2 seconds late. nil restores a
// well-behaved network, and so does a schedule without faults: a send then
// makes no judgement at all.
func (n *Network) SetNemesis(s *nemesis.Schedule) {
	if len(s.Faults()) == 0 {
		s = nil
	}
	n.nem = s
	n.reorderWindow = 10 * n.latency(0)
	if n.reorderWindow <= 0 {
		n.reorderWindow = 0.01
	}
}

// virtual converts a virtual instant in seconds to the schedule's time
// axis, saturating rather than wrapping past time.Duration's range.
func virtual(t float64) time.Duration {
	if ns := t * float64(time.Second); ns < math.MaxInt64 {
		return time.Duration(ns)
	}
	return math.MaxInt64
}

// grow extends the per-node tables to cover id.
func (n *Network) grow(id NodeID) {
	if id < 0 {
		panic(fmt.Sprintf("sim: negative node id %d", id))
	}
	for int(id) >= len(n.handlers) {
		n.handlers = append(n.handlers, nil)
		n.crashed = append(n.crashed, false)
		n.deliverTo = append(n.deliverTo, nil)
	}
}

// Register installs the message handler for id. Registering twice panics —
// it would hide a scenario wiring bug.
func (n *Network) Register(id NodeID, h Handler) {
	n.grow(id)
	if n.handlers[id] != nil {
		panic(fmt.Sprintf("sim: node %d registered twice", id))
	}
	n.handlers[id] = h
}

// Crash marks id as halted (the Crash failure model of §4: a processor fails
// by halting). Messages to and from it vanish; its handler does not run
// again unless the node is restored.
func (n *Network) Crash(id NodeID) {
	n.grow(id)
	n.crashed[id] = true
}

// Restore clears id's crashed mark: the process rebooted and rejoined under
// its old identity. Messages sent to it while it was down stay lost, but a
// message already in flight whose delivery time falls after the restore is
// delivered — the wire does not know the process was ever away, which is
// exactly the stale-delivery hazard a restarted process must tolerate.
func (n *Network) Restore(id NodeID) {
	n.grow(id)
	n.crashed[id] = false
}

// Crashed reports whether id has halted.
func (n *Network) Crashed(id NodeID) bool {
	return int(id) < len(n.crashed) && n.crashed[id]
}

// Send queues msg for delivery from -> to under the latency model and the
// nemesis schedule. Sends from or to crashed nodes, and messages a fault
// cuts, loses or corrupts, all vanish silently — exactly the asynchronous
// model the algorithm must tolerate.
//
// In a Mesh, the crashed-destination check moves to delivery time for
// cross-shard sends (the sender's shard cannot see a remote node's crash
// state without synchronizing on it); the message still vanishes, it is
// just counted ToDead by the receiving shard.
func (n *Network) Send(from, to NodeID, msg Message) {
	if n.Crashed(from) {
		return
	}
	sz := msg.Size()
	n.stats.Send(nemesis.KindOf(msg), int64(sz), 1)
	if n.Crashed(to) {
		n.stats.Drop(&n.stats.ToDead)
		return
	}
	if n.nem == nil {
		n.route(from, to, msg, n.delayFor(from, to, sz))
		return
	}
	v := n.nem.At(int(from), int(to), virtual(n.k.now))
	if v.Cut {
		n.stats.Drop(&n.stats.Cut)
		return
	}
	r := n.k.Rand()
	if v.Loss > 0 && r.Float64() < v.Loss {
		n.stats.Drop(&n.stats.Lost)
		return
	}
	if v.Corrupt > 0 && r.Float64() < v.Corrupt {
		n.stats.Drop(&n.stats.Corrupt)
		return
	}
	slow := v.Delay.Seconds()
	delay := n.delayFor(from, to, sz) + slow
	if v.Reorder > 0 && r.Float64() < v.Reorder {
		// Held back: messages sent after this one can overtake it.
		w := n.reorderWindow
		if v.ReorderWindow > 0 {
			w = v.ReorderWindow.Seconds()
		}
		delay += r.Float64() * w
		n.stats.Reordered++
	}
	n.route(from, to, msg, delay)
	if v.Dup > 0 && r.Float64() < v.Dup {
		// The duplicate takes its own base latency, so the copies race.
		n.stats.Duplicated++
		n.route(from, to, msg, n.delayFor(from, to, sz)+slow)
	}
	if v.Replay > 0 && r.Float64() < v.Replay {
		// A stale copy surfaces much later — a retransmit buffer flushing, a
		// route flap healing — when the system has long moved past it.
		lag := 1.0
		if v.ReplayAfter > 0 {
			lag = v.ReplayAfter.Seconds()
		}
		n.stats.Replayed++
		n.route(from, to, msg, lag*(1+r.Float64()))
	}
}

// route sends one delivery attempt to the local kernel or, when the
// destination lives on another shard of a Mesh, to the shard-pair mailbox
// with its absolute arrival time. The lookahead barrier guarantees the
// arrival time is still in the receiving shard's future at drain time.
func (n *Network) route(from, to NodeID, msg Message, delay float64) {
	if m := n.mesh; m != nil {
		if d := m.ShardOf(to); d != n.self {
			m.enqueue(n.self, d, n.k.now+delay, from, to, msg)
			return
		}
	}
	n.schedule(from, to, msg, delay)
}

// deliverHandler returns the cached destination-bound delivery callback.
func (n *Network) deliverHandler(to NodeID) Handler {
	n.grow(to)
	h := n.deliverTo[to]
	if h == nil {
		h = func(from NodeID, msg Message) { n.deliverNow(from, to, msg) }
		n.deliverTo[to] = h
	}
	return h
}

// schedule queues one delivery attempt of msg after delay through the
// kernel's typed delivery event — no per-message closure; the pooled event
// slot carries the payload.
func (n *Network) schedule(from, to NodeID, msg Message, delay float64) {
	n.k.Deliver(delay, n.deliverHandler(to), from, msg)
}

// deliverNow runs one delivery attempt at its scheduled time. The crash
// check is re-done at delivery time: the destination may have crashed while
// the message was in flight. A message already in flight from a sender that
// crashes later is still delivered — crash-stop halts the process, not the
// wire. The handler is also looked up at delivery time, so a receiver
// registered mid-flight still gets the message, and a copy for an id that
// has none by then is counted Unrouted.
func (n *Network) deliverNow(from, to NodeID, msg Message) {
	if n.Crashed(to) {
		n.stats.Drop(&n.stats.ToDead)
		return
	}
	h := n.handler(to)
	if h == nil {
		n.stats.Drop(&n.stats.Unrouted)
		return
	}
	n.stats.Delivered++
	h(from, msg)
}

// handler returns id's registered handler, or nil.
func (n *Network) handler(id NodeID) Handler {
	if int(id) < len(n.handlers) {
		return n.handlers[id]
	}
	return nil
}

// BroadcastRange sends msg from -> every node in the mesh ring range
// [lo, lo+cnt) (positions mod ring size), the one-event-per-shard fast path
// for the protocol's termination broadcast: a detector tells every other
// process at once. Materialized as individual deliveries that is cnt
// pending events per detector; this path instead enqueues ONE group entry
// per destination shard, and the group fires as one kernel event that walks
// only the shard's own slice of the ring.
// Legal only on a Mesh. Under a nemesis schedule every recipient is judged
// and drawn for on its own, so the broadcast falls back to per-recipient
// Send.
func (n *Network) BroadcastRange(from NodeID, lo, cnt int, msg Message) {
	m := n.mesh
	if m == nil {
		panic("sim: BroadcastRange on a standalone Network")
	}
	if cnt <= 0 || n.Crashed(from) {
		return
	}
	if n.nem != nil {
		for j := 0; j < cnt; j++ {
			n.Send(from, NodeID((lo+j)%m.n), msg)
		}
		return
	}
	sz := msg.Size()
	n.stats.Send(nemesis.KindOf(msg), int64(sz), int64(cnt))
	m.broadcast(n.self, n.k.now+n.latency(sz), from, lo, cnt, msg)
}

// deliverRing delivers one broadcast group to this shard's slice of the
// ring: every owned id whose ring position falls in [lo, lo+cnt) mod n.
// Per-recipient crash state is checked here, at delivery time, exactly like
// deliverNow.
func (n *Network) deliverRing(from NodeID, lo, cnt int, msg Message) {
	m := n.mesh
	blo, bhi := int(m.blockLo[n.self]), int(m.blockHi[n.self])
	for id := blo; id < bhi; id++ {
		d := id - lo
		if d < 0 {
			d += m.n
		}
		if d >= cnt {
			continue
		}
		if n.Crashed(NodeID(id)) {
			n.stats.Drop(&n.stats.ToDead)
			continue
		}
		h := n.handler(NodeID(id))
		if h == nil {
			n.stats.Drop(&n.stats.Unrouted)
			continue
		}
		n.stats.Delivered++
		h(from, msg)
	}
}

// Stats returns a copy of the traffic ledger.
func (n *Network) Stats() nemesis.NetStats { return n.stats }
