package live

import (
	"gossipbnb/internal/member"
	"gossipbnb/internal/protocol"
)

// This file wires the §5.2 membership (internal/member), the detector the
// simulator runs under -membership too, into an incarnation. It never decides
// correctness, only steers resources: a silent peer is suspected, then
// excluded from the view — the shrink a Crash produces — and its link
// suppressed, so work requests and gossip stop burning on a black hole. A
// false exclusion costs only time: the excluded peer is probed with Hello on
// a slow cadence, and any message from it re-absorbs it, Welcome answer and
// table bootstrap included, the join path of a brand-new member. Times are
// seconds on the cluster's protocol clock.

// DetectKind labels one failure-detector transition: member.Suspected,
// Cleared, Excluded or Reabsorbed.
type DetectKind = member.Transition

// DetectEvent is one observer-local detector transition: Node's detector
// moved Peer to the state implied by Kind. Delivered to Config.OnDetect from
// the observing node's goroutine — handlers must not block.
type DetectEvent struct {
	Node NodeID // the observer
	Peer NodeID // the peer whose state changed
	Kind DetectKind
}

// newDetector builds the member for a fresh incarnation: it knows every
// current view peer, alive as of now, and lifts any link suppression a
// previous incarnation of this node left in the transport. Its random draws
// come from the incarnation's stream, on the incarnation's goroutine.
func newDetector(inc *incarnation) *member.Member {
	n := inc.n
	cfg := &n.cl.cfg
	now := n.cl.clock.Now()
	m := member.New(protocol.NodeID(n.id), member.Config{
		SuspectAfter: cfg.SuspectAfter.Seconds(),
		ExcludeAfter: cfg.ExcludeAfter.Seconds(),
	}, member.Deps{Send: inc.sendMember, Rand: inc.rng.IntN, On: inc.onDetect}, now)
	for _, p := range n.peers() {
		m.Learn(p, now)
		n.cl.tr.Exclude(n.id, NodeID(p), false)
	}
	return m
}

// sendMember transmits a membership message with this incarnation's own
// scalars: a heartbeat carries the boot core's incumbent and activity age,
// and a Hello probe is this node's own announcement, address included.
func (inc *incarnation) sendMember(to protocol.NodeID, m protocol.Msg) {
	switch t := m.(type) {
	case protocol.Heartbeat:
		t.Incumbent, t.ActAge = inc.bootScalars()
		m = t
	case protocol.Hello:
		m = inc.hello()
	}
	inc.n.cl.tr.Send(inc.n.id, NodeID(to), m)
}

// onDetect carries out one transition. An exclusion drops the peer from the
// view and suppresses the link to it. A re-absorption undoes both and flags
// the peer's next Welcome to bootstrap the table: while the link was severed
// both sides completed work the other never heard about, and the Full-root
// subtree pull is how the healed side catches up.
func (inc *incarnation) onDetect(peer protocol.NodeID, k member.Transition) {
	n, id := inc.n, NodeID(peer)
	n.cl.detected[k].Add(1)
	switch k {
	case member.Excluded:
		n.dropPeer(peer)
		n.cl.tr.Exclude(n.id, id, true)
	case member.Reabsorbed:
		n.learnPeer(peer)
		n.cl.tr.Exclude(n.id, id, false)
		inc.rejoin[id] = true
	}
	if cb := n.cl.cfg.OnDetect; cb != nil {
		cb(DetectEvent{Node: n.id, Peer: id, Kind: k})
	}
}
