// Package live runs the paper's algorithm on real goroutines and channels
// instead of the virtual-time simulator: each process is a goroutine, each
// message a value on a channel, delays and losses are injected by an
// in-memory transport. This is the "real implementation" the paper defers
// (§6: "We use simulations rather than a real implementation...") — the same
// protocol logic, subjected to genuine concurrency and the race detector.
package live

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/protocol"
)

// NodeID identifies a live node.
type NodeID int

// Message is any payload exchanged between nodes.
type Message interface{ Size() int }

// Envelope wraps a delivered message with its sender.
type Envelope struct {
	From NodeID
	Msg  Message
}

// Net is the transport a Cluster runs over: the in-memory Transport for
// single-process experiments, or TCPNetwork for real sockets.
type Net interface {
	// Register creates the inbox for id and returns its receive channel.
	Register(id NodeID) <-chan Envelope
	// Restart revives a crashed id under its old identity and returns a
	// fresh, empty inbox: messages that arrived while it was down stay
	// lost, exactly like a machine rebooting.
	Restart(id NodeID) <-chan Envelope
	// Add creates a brand-new endpoint mid-run — elastic membership's join —
	// and returns its inbox, or nil if the transport is already closed. For
	// TCP it brings up a fresh listener whose address peers then learn via
	// the Hello/Welcome gossip.
	Add(id NodeID) <-chan Envelope
	// Learn records a dialable address gossiped for id. Transports that
	// route by identity alone (the in-memory one) ignore it.
	Learn(id NodeID, addr string)
	// AddrOf returns id's dialable address, or "" when unknown or when the
	// transport routes by identity.
	AddrOf(id NodeID) string
	// Send queues msg for asynchronous delivery; it must never block the
	// caller and may drop silently (loss, crash, congestion).
	Send(from, to NodeID, msg Message)
	// Crash halts id: messages to and from it vanish.
	Crash(id NodeID)
	// Crashed reports whether id halted.
	Crashed(id NodeID) bool
	// Exclude sets or clears failure-detector suppression of the directed
	// link from → to: while set, sends on it drop (counted under the
	// NetStats Suspect cause) — except Hello and Welcome, the §5.2
	// re-announcement path a falsely-excluded peer needs to get back in.
	Exclude(from, to NodeID, down bool)
	// Stats returns (messages sent, messages dropped, payload bytes).
	Stats() (sent, dropped, bytes int64)
	// NetStats returns the full traffic ledger with per-cause drop counts.
	NetStats() NetStats
	// ByKind returns the per-message-kind traffic breakdown.
	ByKind() KindStats
	// Close releases transport resources after the run.
	Close()
}

// NetStats is the structured traffic ledger of a live transport. Dropped is
// the total; the cause counters below it partition that total, mirroring the
// simulator's NetStats so figures can compare runtimes column for column.
type NetStats struct {
	Sent    int64
	Dropped int64
	Bytes   int64 // payload bytes of sent messages

	// Why dropped messages vanished:
	Lost      int64 // injected uniform loss model
	Cut       int64 // severed by a nemesis fault (partition, stall, flap)
	Suspect   int64 // suppressed: destination excluded by the failure detector
	Corrupt   int64 // destroyed in transit; on TCP, rejected by the frame CRC
	ToDead    int64 // receiver crashed or was replaced while in flight
	Congested int64 // receiver inbox overflow
	Unrouted  int64 // no endpoint, no known address, or dial failed
	Closed    int64 // transport torn down with the message in flight

	// Chaos-model injections (extra or delayed deliveries, not drops):
	Duplicated int64
	Reordered  int64
	Replayed   int64
}

// joinExempt reports whether msg belongs to the Hello/Welcome join
// handshake, which failure-detector link exclusion must never suppress: it
// is the one path a falsely-suspected peer can re-announce through.
func joinExempt(msg Message) bool {
	k := msgKind(msg)
	return k == protocol.KindHello || k == protocol.KindWelcome
}

// MsgKinds bounds the dense per-kind accounting arrays — the protocol
// codec's kind space; bucket 0 collects messages that expose no kind.
const MsgKinds = 16

// KindStats breaks sent traffic down by message kind, indexed by the codec
// kind byte (protocol.KindName labels them).
type KindStats struct {
	Sent  [MsgKinds]int64
	Bytes [MsgKinds]int64
}

// note tallies one sent message of size sz under kind k.
func (s *KindStats) note(k byte, sz int) {
	s.Sent[k]++
	s.Bytes[k] += int64(sz)
}

// msgKind resolves a message's accounting bucket.
func msgKind(msg Message) byte {
	if km, ok := msg.(interface{ Kind() byte }); ok {
		if k := km.Kind(); int(k) < MsgKinds {
			return k
		}
	}
	return 0
}

// Chaos parameterizes adversarial delivery: the duplicated, reordered, and
// replayed arrivals the asynchronous model of §4 permits but well-behaved
// transports rarely produce. The zero value is a well-behaved network.
type Chaos struct {
	// Duplicate is the independent probability a message is delivered twice.
	// The copy is scheduled with the base delay, so it races the original
	// only when the original was held back by Reorder (or by delivery-time
	// scheduling jitter).
	Duplicate float64
	// Reorder is the probability a message is held back by up to
	// ReorderWindow extra delay, letting later sends overtake it.
	// ReorderWindow 0 means 5 ms.
	Reorder       float64
	ReorderWindow time.Duration
	// Replay re-delivers a stale copy between ReplayDelay and 2·ReplayDelay
	// after the send; ReplayDelay 0 means 50 ms.
	Replay      float64
	ReplayDelay time.Duration
}

func (c Chaos) withDefaults() Chaos {
	for _, p := range [...]struct {
		what string
		p    float64
	}{{"duplicate", c.Duplicate}, {"reorder", c.Reorder}, {"replay", c.Replay}} {
		if p.p < 0 || p.p > 1 {
			panic(fmt.Sprintf("live: %s probability %g out of [0,1]", p.what, p.p))
		}
	}
	if c.ReorderWindow <= 0 {
		c.ReorderWindow = 5 * time.Millisecond
	}
	if c.ReplayDelay <= 0 {
		c.ReplayDelay = 50 * time.Millisecond
	}
	return c
}

var _ Net = (*Transport)(nil)

// Transport is an in-memory lossy, delaying network. It is safe for
// concurrent use.
type Transport struct {
	mu      sync.Mutex
	inboxes map[NodeID]chan Envelope
	crashed map[NodeID]bool
	excl    map[[2]NodeID]bool       // failure-detector link suppression
	timers  map[*time.Timer]struct{} // in-flight delayed deliveries
	closed  bool
	rng     *rand.Rand
	delay   func(bytes int) time.Duration
	loss    float64
	chaos   Chaos
	nem     *nemesis.Schedule
	stats   NetStats
	kinds   KindStats
}

// NewTransport creates a transport. delay maps message size to one-way
// latency (nil = none); loss is the independent drop probability.
func NewTransport(seed int64, delay func(bytes int) time.Duration, loss float64) *Transport {
	return &Transport{
		inboxes: map[NodeID]chan Envelope{},
		crashed: map[NodeID]bool{},
		excl:    map[[2]NodeID]bool{},
		timers:  map[*time.Timer]struct{}{},
		rng:     rand.New(rand.NewSource(seed)),
		delay:   delay,
		loss:    loss,
	}
}

// inboxCap is the buffered capacity of every node inbox; sends beyond it
// drop, like a congested receiver.
const inboxCap = 4096

// Register creates the inbox for id and returns it.
func (t *Transport) Register(id NodeID) <-chan Envelope {
	t.mu.Lock()
	defer t.mu.Unlock()
	ch := make(chan Envelope, inboxCap)
	t.inboxes[id] = ch
	return ch
}

// Restart implements Net: revive a crashed node under its old identity with
// a fresh, empty inbox. Deliveries still in flight toward the old inbox are
// dropped — a rebooted machine does not receive what arrived while it was
// down.
func (t *Transport) Restart(id NodeID) <-chan Envelope {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	delete(t.crashed, id)
	ch := make(chan Envelope, inboxCap)
	t.inboxes[id] = ch
	return ch
}

// Add implements Net: a brand-new endpoint joins mid-run. In memory that is
// just a fresh inbox; identity is the only address there is.
func (t *Transport) Add(id NodeID) <-chan Envelope {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	ch := make(chan Envelope, inboxCap)
	t.inboxes[id] = ch
	return ch
}

// Learn implements Net: the in-memory transport routes by identity, so
// gossiped addresses carry no information for it.
func (t *Transport) Learn(NodeID, string) {}

// AddrOf implements Net: in-memory endpoints have no dialable address.
func (t *Transport) AddrOf(NodeID) string { return "" }

// SetChaos turns on adversarial delivery: duplicated, reordered, and
// replayed arrivals. Call it before the cluster starts sending.
func (t *Transport) SetChaos(c Chaos) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.chaos = c.withDefaults()
}

// ChaosStats returns how many extra or delayed deliveries the chaos model
// injected: (duplicated, reordered, replayed).
func (t *Transport) ChaosStats() (duplicated, reordered, replayed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats.Duplicated, t.stats.Reordered, t.stats.Replayed
}

// SetNemesis attaches a fault-injection schedule: every send is judged
// against it, and cut, delayed, or corrupted accordingly. Call it before the
// cluster starts sending.
func (t *Transport) SetNemesis(s *nemesis.Schedule) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nem = s
}

// Exclude implements Net: failure-detector suppression of one directed link.
func (t *Transport) Exclude(from, to NodeID, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if down {
		t.excl[[2]NodeID{from, to}] = true
	} else {
		delete(t.excl, [2]NodeID{from, to})
	}
}

// Crash marks id as halted: messages to and from it vanish.
func (t *Transport) Crash(id NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.crashed[id] = true
}

// Crashed reports whether id halted.
func (t *Transport) Crashed(id NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.crashed[id]
}

// Send queues msg for delivery. Lost messages, crashed or unregistered
// endpoints, and full inboxes all drop silently — the asynchronous model of
// §4 — but every message that vanishes is counted in Stats' dropped column,
// so loss metrics see congestion and crash losses, not just injected loss.
// Under a Chaos model a message may additionally be delivered twice, held
// back so later sends overtake it, or replayed stale much later.
func (t *Transport) Send(from, to NodeID, msg Message) {
	size := msg.Size() // once per send and outside the lock: a Report's is a walk over every decision
	t.mu.Lock()
	if t.closed || t.crashed[from] || t.crashed[to] {
		t.mu.Unlock()
		return
	}
	t.stats.Sent++
	t.stats.Bytes += int64(size)
	t.kinds.note(msgKind(msg), size)
	if t.excl[[2]NodeID{from, to}] && !joinExempt(msg) {
		// The local failure detector excluded this destination; only the
		// Hello/Welcome re-announcement path stays open.
		t.dropLocked(&t.stats.Suspect)
		t.mu.Unlock()
		return
	}
	// Judging is lock-free in the schedule, so it can run under t.mu.
	verdict := t.nem.JudgeNow(int(from), int(to))
	if verdict.Cut {
		t.dropLocked(&t.stats.Cut)
		t.mu.Unlock()
		return
	}
	if t.loss > 0 && t.rng.Float64() < t.loss {
		t.dropLocked(&t.stats.Lost)
		t.mu.Unlock()
		return
	}
	ch := t.inboxes[to]
	if ch == nil {
		t.dropLocked(&t.stats.Unrouted) // unregistered destination
		t.mu.Unlock()
		return
	}
	if verdict.Corrupt > 0 && t.rng.Float64() < verdict.Corrupt {
		// The in-memory transport has no frames to damage, so an injected
		// corruption behaves as its TCP outcome would: the message dies in
		// transit and the corruption is counted.
		t.dropLocked(&t.stats.Corrupt)
		t.mu.Unlock()
		return
	}
	d := verdict.Delay
	if t.delay != nil {
		d += t.delay(size)
	}
	var scratch [3]time.Duration
	copies := scratch[:0]
	first := d
	if t.chaos.Reorder > 0 && t.rng.Float64() < t.chaos.Reorder {
		// Held back: messages sent after this one can overtake it.
		first += time.Duration(t.rng.Float64() * float64(t.chaos.ReorderWindow))
		t.stats.Reordered++
	}
	copies = append(copies, first)
	if t.chaos.Duplicate > 0 && t.rng.Float64() < t.chaos.Duplicate {
		copies = append(copies, d)
		t.stats.Duplicated++
	}
	if t.chaos.Replay > 0 && t.rng.Float64() < t.chaos.Replay {
		// A stale copy from the past surfaces long after both ends moved on.
		copies = append(copies, t.chaos.ReplayDelay+time.Duration(t.rng.Float64()*float64(t.chaos.ReplayDelay)))
		t.stats.Replayed++
	}
	env := Envelope{From: from, Msg: msg}
	immediate := 0
	for _, dc := range copies {
		if dc <= 0 {
			immediate++
			continue
		}
		t.scheduleLocked(ch, env, to, dc)
	}
	t.mu.Unlock()
	for i := 0; i < immediate; i++ {
		t.deliver(ch, env, to)
	}
}

// scheduleLocked registers one delayed delivery attempt; t.mu must be held.
// The timer is tracked so Close can stop it — an untracked timer outlives
// the cluster and delivers into inboxes after teardown.
func (t *Transport) scheduleLocked(ch chan Envelope, env Envelope, to NodeID, d time.Duration) {
	var tm *time.Timer
	tm = time.AfterFunc(d, func() {
		t.mu.Lock()
		delete(t.timers, tm)
		if t.closed {
			t.dropLocked(&t.stats.Closed) // torn down; Close lost the Stop race
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
		t.deliver(ch, env, to)
	})
	t.timers[tm] = struct{}{}
}

// deliver hands env to the inbox unless the destination crashed — or crashed
// and was replaced by a restart's fresh inbox — meanwhile; either way that
// the message vanishes, it is counted dropped.
func (t *Transport) deliver(ch chan Envelope, env Envelope, to NodeID) {
	t.mu.Lock()
	stale := t.crashed[to] || t.inboxes[to] != ch
	t.mu.Unlock()
	if stale {
		t.drop(&t.stats.ToDead)
		return
	}
	select {
	case ch <- env:
	default:
		t.drop(&t.stats.Congested) // inbox overflow: a congested receiver
	}
}

// drop counts one vanished message under the given cause; dropLocked is the
// same with t.mu already held.
func (t *Transport) drop(cause *int64) {
	t.mu.Lock()
	t.dropLocked(cause)
	t.mu.Unlock()
}

func (t *Transport) dropLocked(cause *int64) {
	t.stats.Dropped++
	*cause++
}

// Stats returns (messages sent, messages dropped, payload bytes).
func (t *Transport) Stats() (sent, dropped, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats.Sent, t.stats.Dropped, t.stats.Bytes
}

// NetStats implements Net.
func (t *Transport) NetStats() NetStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// ByKind implements Net.
func (t *Transport) ByKind() KindStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.kinds
}

// Close implements Net: stop every pending delayed delivery so no timer
// goroutine outlives the cluster and delivers into a torn-down inbox.
// Stopped messages were sent but never arrived, so they count as dropped;
// a timer that already fired counts its own fate.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	pending := make([]*time.Timer, 0, len(t.timers))
	for tm := range t.timers {
		pending = append(pending, tm)
	}
	t.timers = map[*time.Timer]struct{}{}
	t.mu.Unlock()
	for _, tm := range pending {
		if tm.Stop() {
			t.drop(&t.stats.Closed)
		}
	}
}
