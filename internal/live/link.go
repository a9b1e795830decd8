package live

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/protocol"
)

// joinExempt reports whether kind k is a Hello or the heartbeat table that
// answers it, which failure-detector link exclusion must never suppress: they
// are the one path a falsely-suspected peer can re-announce through.
func joinExempt(k byte) bool {
	return k == protocol.KindHello || k == protocol.KindHeartbeat
}

// inboxCap is the buffered capacity of every node inbox; sends beyond it
// drop, like a congested receiver.
const inboxCap = 4096

// parcel is one copy of a sent message that survived the link policy, on its
// way to the transport's delivery mechanism.
type parcel struct {
	to      NodeID
	ep      chan Envelope // to's endpoint when the message was sent; nil if it had none
	env     Envelope
	corrupt bool // a nemesis fault sentenced this message to be damaged in transit
}

// link is the one place a live message's fate is decided and counted. The §4
// failure model — halting processes; messages lost, duplicated, reordered,
// delayed — is a property of links, so both transports embed a link and add
// only the mechanism that moves a surviving copy: a channel hand-off in
// memory, a framed socket write over TCP. It is safe for concurrent use.
//
// Send is one pipeline, in this order: size and kind the message once →
// refuse it if the link is closed or either end crashed → tally it in the
// nemesis.NetStats ledger (Sent, Bytes, per kind) → failure-detector
// exclusion, the join handshake exempt → the nemesis verdict at the wall
// time since SetNemesis, carried out by Verdict.Apply, the simulator's own →
// hand each copy it sentences to carry, now or from a tracked timer. A
// message is counted Sent before any drop cause can claim it, and a copy
// that vanishes is counted under exactly one cause. Sends from or to a
// crashed node, and sends after Close, are counted nowhere. The delay
// function applies wherever the constructor set it; the constructor's loss
// rate is a loss fault of the link's schedule, beside whatever SetNemesis
// installs.
//
// The policy decides Suspect and Closed, Apply decides Cut and Lost, and
// deliver, which every arriving copy passes through, decides Delivered,
// ToDead and Congested. The delivery mechanism decides Unrouted and Corrupt,
// and ToDead for a socket that died under the write.
//
// Every boot of a node is a distinct endpoint: open hands it a fresh inbox,
// and the channel's identity names the boot. A copy in flight carries the
// endpoint it was meant for, and deliver drops it once that is no longer the
// node's current one — a rebooted machine does not receive what was sent to
// its previous life.
type link struct {
	mu      sync.Mutex
	inboxes map[NodeID]chan Envelope // current endpoint of each node
	crashed map[NodeID]bool
	excl    map[[2]NodeID]bool       // failure-detector link suppression
	timers  map[*time.Timer]struct{} // held-back copies in flight
	closed  bool
	rng     *rand.Rand
	delay   func(bytes int) time.Duration
	loss    float64           // the constructor's rate, folded into nem
	nem     *nemesis.Schedule // nil: no fault
	origin  time.Time         // the instant nem's windows start from
	stats   nemesis.NetStats
	carry   func(parcel) // the embedding transport's delivery mechanism
}

// init prepares a link. delay maps message size to one-way latency (nil =
// none); loss is the drop probability of a loss fault over the whole run.
func (l *link) init(seed int64, delay func(bytes int) time.Duration, loss float64, carry func(parcel)) {
	l.inboxes = map[NodeID]chan Envelope{}
	l.crashed = map[NodeID]bool{}
	l.excl = map[[2]NodeID]bool{}
	l.timers = map[*time.Timer]struct{}{}
	l.rng = rand.New(rand.NewSource(seed))
	l.delay, l.loss, l.carry = delay, loss, carry
	l.SetNemesis(nil)
}

// open boots id — at registration, on a join or after a crash — with a
// fresh, empty inbox and no crashed flag, and returns the inbox, or nil once
// the link is closed. Copies still in flight toward the previous inbox drop.
func (l *link) open(id NodeID) chan Envelope {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	delete(l.crashed, id)
	ch := make(chan Envelope, inboxCap)
	l.inboxes[id] = ch
	return ch
}

// Live defaults, in seconds, for a nemesis reorder fault without a window
// and a replay fault without a delay.
const (
	reorderWindow = 0.005
	replayAfter   = 0.05
)

// SetNemesis attaches a fault-injection schedule, nil for none, beside the
// constructor's loss rate, and starts its windows now: every later send is
// judged against it once, at send time — cut, delayed, lost, corrupted, held
// back, duplicated or replayed accordingly. The schedule keeps no clock, so
// one value may serve several links, each from its own SetNemesis.
// (Embedding promotes it onto TCPNetwork as well, where the copies become
// extra frames.)
func (l *link) SetNemesis(s *nemesis.Schedule) {
	if l.loss > 0 {
		s = nemesis.New(append(slices.Clone(s.Faults()), nemesis.Fault{Kind: nemesis.Loss, Prob: l.loss})...)
	} else if len(s.Faults()) == 0 {
		s = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nem, l.origin = s, time.Now()
}

// Exclude implements Net: failure-detector suppression of one directed link.
func (l *link) Exclude(from, to NodeID, down bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if down {
		l.excl[[2]NodeID{from, to}] = true
	} else {
		delete(l.excl, [2]NodeID{from, to})
	}
}

// Crash marks id as halted: messages to and from it vanish.
func (l *link) Crash(id NodeID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.crashed[id] = true
}

// Crashed reports whether id halted.
func (l *link) Crashed(id NodeID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.crashed[id]
}

// Send implements Net. Every way a message can vanish is silent — the
// asynchronous model of §4 — but each is counted, so loss metrics see
// congestion and crash losses, not just injected loss. Under a nemesis
// schedule a message may additionally be delivered twice, held back so later
// sends overtake it, or replayed stale much later.
func (l *link) Send(from, to NodeID, msg Message) {
	// Sized and kinded once per send, outside the lock every sender contends
	// on: a set message's Size is a field read, but a grant's walks every
	// decision of its codes.
	size, kind := msg.Size(), nemesis.KindOf(msg)
	l.mu.Lock()
	if l.closed || l.crashed[from] || l.crashed[to] {
		l.mu.Unlock()
		return
	}
	l.stats.Send(kind, int64(size), 1)
	if l.excl[[2]NodeID{from, to}] && !joinExempt(kind) {
		// The local failure detector excluded this destination; only the
		// Hello/Heartbeat re-announcement path stays open.
		l.dropLocked(&l.stats.Suspect)
		l.mu.Unlock()
		return
	}
	var v nemesis.Verdict
	if l.nem != nil {
		v = l.nem.At(int(from), int(to), time.Since(l.origin))
	}
	var base float64
	if l.delay != nil {
		base = l.delay(size).Seconds()
	}
	st := v.Apply(l.rng, base, reorderWindow, replayAfter, &l.stats)
	p := parcel{to: to, ep: l.inboxes[to], env: Envelope{From: from, Msg: msg}, corrupt: st.Corrupt}
	immediate := 0
	for _, sec := range st.Delay[:st.Copies] {
		if d := time.Duration(math.Round(sec * float64(time.Second))); d > 0 {
			l.holdLocked(p, d)
		} else {
			immediate++
		}
	}
	l.mu.Unlock()
	for range immediate {
		l.carry(p)
	}
}

// holdLocked hands p to carry after d; l.mu must be held. The timer is
// tracked so Close can stop it — an untracked timer outlives the cluster and
// delivers into inboxes after teardown. The verdict is not re-judged when the
// timer fires — this message already took its sentence — but closed is, here,
// and crash state is by carry and deliver.
func (l *link) holdLocked(p parcel, d time.Duration) {
	var tm *time.Timer
	tm = time.AfterFunc(d, func() {
		l.mu.Lock()
		delete(l.timers, tm)
		closed := l.closed
		if closed {
			l.dropLocked(&l.stats.Closed) // torn down; Close lost the Stop race
		}
		l.mu.Unlock()
		if !closed {
			l.carry(p)
		}
	})
	l.timers[tm] = struct{}{}
}

// deliver puts env into ep, the endpoint of `to` the copy was addressed to,
// and reports whether that endpoint is still live. It is not once the link
// closed, or `to` crashed — or crashed and was replaced by a restart's fresh
// inbox — meanwhile; either way that the message vanishes, it is counted.
// A live endpoint's copy is counted Delivered under the lock the checks
// already hold, and moved to Congested if the inbox turns out to be full.
func (l *link) deliver(to NodeID, ep chan Envelope, env Envelope) bool {
	l.mu.Lock()
	var cause *int64
	if l.closed {
		cause = &l.stats.Closed
	} else if l.crashed[to] || l.inboxes[to] != ep {
		cause = &l.stats.ToDead
	}
	if cause != nil {
		l.dropLocked(cause)
		l.mu.Unlock()
		return false
	}
	l.stats.Delivered++
	l.mu.Unlock()
	select {
	case ep <- env:
	default:
		l.mu.Lock() // inbox overflow: a congested receiver
		l.stats.Delivered--
		l.dropLocked(&l.stats.Congested)
		l.mu.Unlock()
	}
	return true
}

// drop counts one vanished message under the given cause; dropLocked is the
// same with l.mu already held.
func (l *link) drop(cause *int64) {
	l.mu.Lock()
	l.dropLocked(cause)
	l.mu.Unlock()
}

func (l *link) dropLocked(cause *int64) { l.stats.Drop(cause) }

// NetStats implements Net.
func (l *link) NetStats() nemesis.NetStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close implements Net: refuse further sends and stop every held-back copy,
// so no timer goroutine outlives the cluster and delivers into a torn-down
// inbox. Stopped messages were sent but never arrived, so they count as
// dropped; a timer that already fired counts its own fate.
func (l *link) Close() {
	l.mu.Lock()
	l.closed = true
	pending := l.timers
	l.timers = map[*time.Timer]struct{}{}
	l.mu.Unlock()
	for tm := range pending {
		if tm.Stop() {
			l.drop(&l.stats.Closed)
		}
	}
}
