package live

import "gossipbnb/internal/protocol"

// This file is the live runtime's failure detector: the unreliable,
// completeness-over-accuracy detector of Chandra & Toueg grafted onto the
// paper's §5.2 membership path. The paper's model makes failures
// "not directly detectable", so the detector never decides correctness —
// it only steers resources: a silent peer is first suspected, then excluded
// from the local view (the same view shrink a Crash produces), so work
// requests and gossip stop burning on a black hole. A false exclusion costs
// only time: the excluded peer keeps being probed with Hello on a slow
// cadence, and any message from it — evidence of life — re-absorbs it,
// Welcome answer and table bootstrap included, exactly the join path of a
// brand-new member.
//
// Evidence is piggybacked: every received envelope refreshes the sender's
// lastHeard, so a busy link never needs explicit traffic. Only idle links
// get Ping heartbeats, paced at a third of SuspectAfter. Every time here is
// seconds on the cluster's protocol clock.

// DetectKind labels one failure-detector transition.
type DetectKind int

// Detector transitions, in escalation order. Cleared and Reabsorbed are the
// recoveries: a suspicion (or exclusion) that evidence of life revoked.
const (
	Suspected  DetectKind = iota // alive → suspect: silent past SuspectAfter
	Cleared                      // suspect → alive: heard again before exclusion
	Excluded                     // suspect → excluded: silent past ExcludeAfter
	Reabsorbed                   // excluded → alive: re-announced or just spoke
)

// String names the transition.
func (k DetectKind) String() string {
	switch k {
	case Suspected:
		return "suspected"
	case Cleared:
		return "cleared"
	case Excluded:
		return "excluded"
	case Reabsorbed:
		return "reabsorbed"
	}
	return "detect(?)"
}

// DetectEvent is one observer-local detector transition: Node's detector
// moved Peer to the state implied by Kind. Delivered to Config.OnDetect from
// the observing node's goroutine — handlers must not block.
type DetectEvent struct {
	Node NodeID // the observer
	Peer NodeID // the peer whose state changed
	Kind DetectKind
}

// peerState is the per-peer detector state machine.
type peerState int

const (
	peerAlive peerState = iota
	peerSuspect
	peerExcluded
)

// peerHealth is everything the detector tracks about one peer. All times are
// seconds on the cluster's protocol clock, read and written only on the
// owning incarnation's goroutine.
type peerHealth struct {
	lastHeard float64 // last envelope received from the peer
	lastSent  float64 // last message sent to the peer (heartbeat pacing)
	probeAt   float64 // next Hello probe while excluded; 0 probes at once
	state     peerState
}

// detector is one incarnation's failure detector. It is confined to the
// incarnation's goroutine — heard runs from handle, tick from the run loop,
// noteSent from the core's sends — so it needs no locks; transitions that
// must outlive the incarnation (stats, view edits, link suppression) go
// through the liveNode and transport, which are concurrency-safe.
type detector struct {
	inc   *incarnation
	peers map[NodeID]*peerHealth

	// rejoin marks peers re-absorbed after exclusion whose next Welcome
	// should trigger a table bootstrap: while the link was severed both
	// sides completed work the other never heard about, and the Full-root
	// subtree pull is how the healed side catches up.
	rejoin map[NodeID]bool
}

// newDetector builds the detector for a fresh incarnation, seeding every
// current view peer as alive-as-of-now and clearing any link suppression a
// previous incarnation of this node left in the transport.
func newDetector(inc *incarnation) *detector {
	d := &detector{inc: inc, peers: map[NodeID]*peerHealth{}, rejoin: map[NodeID]bool{}}
	n := inc.n
	now := n.cl.clock.Now()
	for _, p := range n.peers() {
		d.ensure(NodeID(p), now)
		n.cl.tr.Exclude(n.id, NodeID(p), false)
	}
	return d
}

// ensure returns the tracking entry for id, creating it alive-as-of-now for
// peers learned mid-run (join gossip spreads the view faster than tick
// re-scans it).
func (d *detector) ensure(id NodeID, now float64) *peerHealth {
	p := d.peers[id]
	if p == nil {
		p = &peerHealth{lastHeard: now, lastSent: now}
		d.peers[id] = p
	}
	return p
}

// heard records evidence of life: an envelope arrived from the peer. Called
// at the top of handle for every delivery, before any protocol routing — a
// corrupted or otherwise undecodable frame never gets here, so evidence is
// only ever a frame that passed integrity. Recoveries happen here: a suspect
// is cleared, an excluded peer is re-absorbed — back into the view, link
// suppression lifted, and its next Welcome flagged to bootstrap the table.
func (d *detector) heard(from NodeID) {
	if d == nil || from == d.inc.n.id {
		return
	}
	now := d.inc.n.cl.clock.Now()
	p := d.ensure(from, now)
	switch p.state {
	case peerSuspect:
		p.state = peerAlive
		d.emit(from, Cleared)
	case peerExcluded:
		n := d.inc.n
		p.state = peerAlive
		n.learnPeer(protocol.NodeID(from))
		n.cl.tr.Exclude(n.id, from, false)
		d.rejoin[from] = true
		n.detReabsorbed.Add(1)
		d.emit(from, Reabsorbed)
	}
	p.lastHeard = now
}

// noteSent records outbound traffic toward a peer, so heartbeats only fill
// links the protocol leaves idle. Called from the core's sender on the same
// goroutine.
func (d *detector) noteSent(to NodeID) {
	if d == nil || to == d.inc.n.id {
		return
	}
	now := d.inc.n.cl.clock.Now()
	d.ensure(to, now).lastSent = now
}

// rejoining consumes the bootstrap flag for a re-absorbed peer: true means
// the Welcome now being handled should pull the Full-root subtree from it.
func (d *detector) rejoining(from NodeID) bool {
	if d == nil || !d.rejoin[from] {
		return false
	}
	delete(d.rejoin, from)
	return true
}

// tick advances every peer's state machine and fills idle links. It returns
// the deadline of the next tick, a quarter of a heartbeat on, which the
// incarnation waits on beside its cores' WakeAt.
func (d *detector) tick(now float64) float64 {
	n := d.inc.n
	cl := n.cl
	suspect, exclude := cl.cfg.SuspectAfter.Seconds(), cl.cfg.ExcludeAfter.Seconds()
	heartbeat := suspect / 3

	// The view can gain members between ticks (join gossip); make sure every
	// current peer is tracked before scanning. Excluded peers left the view
	// but stay in the map — that is where their probe cadence lives.
	for _, p := range n.peers() {
		d.ensure(NodeID(p), now)
	}
	for id, p := range d.peers {
		if cl.tr.Crashed(id) {
			// An oracle-crashed peer (driver Crash call) is not detector
			// business in tests that script both; skip so heartbeats don't
			// count against a node the harness itself halted. Detection of
			// real silence still works: Crashed is only true for scripted
			// crashes, never for nemesis faults.
			continue
		}
		silent := now - p.lastHeard
		switch {
		case p.state != peerExcluded && silent > exclude:
			p.state = peerExcluded
			n.dropPeer(protocol.NodeID(id))
			cl.tr.Exclude(n.id, id, true)
			n.detExclusions.Add(1)
			d.emit(id, Excluded)
		case p.state == peerAlive && silent > suspect:
			p.state = peerSuspect
			n.detSuspicions.Add(1)
			d.emit(id, Suspected)
		}
		if p.state == peerExcluded {
			// Excluded peers get slow direct Hello probes: the one exempt
			// message link suppression lets through, and the §5.2 door a
			// falsely-excluded (or healed) peer answers with Welcome. Jitter
			// desynchronizes probe storms after a partition heals.
			if now >= p.probeAt {
				p.probeAt = now + exclude*(1+d.inc.rng.Float64()/4)
				cl.tr.Send(n.id, id, d.inc.hello())
			}
			continue
		}
		if now-p.lastSent > heartbeat {
			// Idle link: no protocol traffic flowed for a full heartbeat
			// period, so send the explicit Ping that keeps the peer's
			// detector fed. Busy links never pay this — every envelope is
			// already evidence.
			p.lastSent = now
			var ping protocol.Ping
			ping.Incumbent, ping.ActAge = d.inc.bootScalars()
			cl.tr.Send(n.id, id, ping)
		}
	}
	return now + heartbeat/4
}

// emit delivers one transition to the configured observer callback.
func (d *detector) emit(peer NodeID, kind DetectKind) {
	if cb := d.inc.n.cl.cfg.OnDetect; cb != nil {
		cb(DetectEvent{Node: d.inc.n.id, Peer: peer, Kind: kind})
	}
}
