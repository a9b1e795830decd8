package live

import (
	"gossipbnb/internal/member"
	"gossipbnb/internal/protocol"
)

// This file wires the §5.2 membership (internal/member), the one the
// simulator runs under -membership too, into an incarnation. The member is
// the incarnation's view: its cores read Member.Peers. With SuspectAfter zero
// it is never ticked, so it only learns — no heartbeat rounds, no suspicion.
// Detection never decides correctness, only steers resources: a silent peer
// is suspected, then excluded from the view — the shrink a Crash produces —
// and its link suppressed, so work requests and gossip stop burning on a
// black hole. A false exclusion costs only time: the excluded peer is probed
// with Hello on a slow cadence, and any message from it re-absorbs it, its
// next heartbeat bootstrapping the table as a joiner's first does. Times are
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

// newMember builds the member of a fresh incarnation: it knows pool, alive as
// of now, and lifts any link suppression a previous incarnation of this node
// left in the transport. Its random draws come from the incarnation's stream,
// on the incarnation's goroutine.
func newMember(inc *incarnation, pool []NodeID) *member.Member {
	n := inc.n
	cfg := &n.cl.cfg
	now := n.cl.clock.Now()
	m := member.New(protocol.NodeID(n.id), member.Config{
		SuspectAfter: cfg.SuspectAfter.Seconds(),
		ExcludeAfter: cfg.ExcludeAfter.Seconds(),
	}, member.Deps{Send: inc.sendMember, Rand: inc.rng.IntN, On: inc.onDetect}, now)
	for _, p := range pool {
		m.Learn(protocol.NodeID(p), now)
		n.cl.tr.Exclude(n.id, p, false)
	}
	return m
}

// sendMember transmits a membership message — a heartbeat table or a Hello
// probe — with the boot core's incumbent and activity age.
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

// onDetect carries out one transition. An exclusion suppresses the link to
// the peer; a re-absorption lifts it and marks the peer's next heartbeat to
// bootstrap the table (onHeartbeat).
func (inc *incarnation) onDetect(peer protocol.NodeID, k member.Transition) {
	n, id := inc.n, NodeID(peer)
	n.cl.detected[k].Add(1)
	switch k {
	case member.Excluded:
		n.cl.tr.Exclude(n.id, id, true)
	case member.Reabsorbed:
		n.cl.tr.Exclude(n.id, id, false)
		inc.rejoin[id] = true
	}
	if cb := n.cl.cfg.OnDetect; cb != nil {
		cb(DetectEvent{Node: n.id, Peer: id, Kind: k})
	}
}
