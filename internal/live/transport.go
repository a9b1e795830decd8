// Package live runs the paper's algorithm on real goroutines and channels
// instead of the virtual-time simulator: each process is a goroutine, each
// message a value on a channel, delays and losses are injected by an
// in-memory transport. This is the "real implementation" the paper defers
// (§6: "We use simulations rather than a real implementation...") — the same
// protocol logic, subjected to genuine concurrency and the race detector.
package live

import (
	"time"

	"gossipbnb/internal/nemesis"
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
	// TCP it brings up a fresh listener, which every sender in the process
	// can dial at once.
	Add(id NodeID) <-chan Envelope
	// Send queues msg for asynchronous delivery; it must never block the
	// caller and may drop silently (loss, crash, congestion).
	Send(from, to NodeID, msg Message)
	// Crash halts id: messages to and from it vanish.
	Crash(id NodeID)
	// Crashed reports whether id halted.
	Crashed(id NodeID) bool
	// Exclude sets or clears failure-detector suppression of the directed
	// link from → to: while set, sends on it drop (counted under the
	// NetStats Suspect cause) — except a Hello and the heartbeat table that
	// answers it, the §5.2 re-announcement path a falsely-excluded peer needs
	// to get back in.
	Exclude(from, to NodeID, down bool)
	// NetStats returns the traffic ledger: sends and bytes, in total and
	// per message kind, drops by cause, and nemesis injections.
	NetStats() nemesis.NetStats
	// Close releases transport resources after the run.
	Close()
}

var _ Net = (*Transport)(nil)

// Transport is an in-memory lossy, delaying network: the link policy over a
// channel hand-off. It is safe for concurrent use.
type Transport struct{ link }

// NewTransport creates a transport. delay maps message size to one-way
// latency (nil = none); loss is the drop probability of a loss fault over
// the whole run, kept beside any schedule SetNemesis installs.
func NewTransport(seed int64, delay func(bytes int) time.Duration, loss float64) *Transport {
	t := &Transport{}
	t.init(seed, delay, loss, t.handOff)
	return t
}

// Register creates the inbox for id and returns it.
func (t *Transport) Register(id NodeID) <-chan Envelope { return t.open(id) }

// Restart implements Net: revive a crashed node under its old identity with
// a fresh, empty inbox. Deliveries still in flight toward the old inbox are
// dropped — a rebooted machine does not receive what arrived while it was
// down.
func (t *Transport) Restart(id NodeID) <-chan Envelope { return t.open(id) }

// Add implements Net: a brand-new endpoint joins mid-run. In memory that is
// just a fresh inbox; identity is the only address there is.
func (t *Transport) Add(id NodeID) <-chan Envelope { return t.open(id) }

// handOff is the in-memory delivery mechanism: the copy goes straight into
// the endpoint it was addressed to. Identity is the only address, so a
// destination that never registered is unroutable; and with no frames to
// damage, an injected corruption behaves as its TCP outcome would — the
// message dies in transit and the corruption is counted.
func (t *Transport) handOff(p parcel) {
	switch {
	case p.ep == nil:
		t.drop(&t.stats.Unrouted)
	case p.corrupt:
		t.drop(&t.stats.Corrupt)
	default:
		t.deliver(p.to, p.ep, p.env)
	}
}
