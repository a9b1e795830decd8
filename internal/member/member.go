// Package member is the group membership and failure detector of §5.2,
// stated once for both runtimes: gossip heartbeats after the failure
// detection service of van Renesse, Minsky and Hayden, escalated suspect →
// exclude as in a Chandra–Toueg unreliable detector.
//
// A Member is one process's state machine and holds no kernel, network,
// transport or clock handle. Its inputs are its driver's calls, each with the
// driver's time in seconds: Heard (any envelope is direct evidence its sender
// is alive), Gossip (a heartbeat table is indirect evidence, counted only on
// strict progress), Learn, Answer and Tick. Its outputs go through Deps:
// messages, random draws from the caller's stream, and transitions.
//
// Heartbeat tables also spread membership: a member that learns of a
// newcomer relays it, so a joiner that knows one contact is in every view a
// few rounds later (§5.2's gossip servers). A driver may shortcut a join: the
// live runtime answers a joiner's Hello with the contact's table (Answer), so
// the joiner's view is whole after one round trip.
//
// Consistent views are impossible in asynchronous unreliable systems
// (Chandra et al.), and the paper's algorithm does not need them: the view
// only has to be good enough to pick gossip and load-balancing partners. So
// the detector never decides correctness: a false exclusion costs time, and
// any evidence of life revokes it.
package member

import (
	"cmp"
	"math"
	"slices"

	"gossipbnb/internal/protocol"
)

// Config tunes the detector.
type Config struct {
	// SuspectAfter is the silence — no envelope from a member, no progress of
	// its heartbeat — after which it is suspected in a group of up to four.
	// A counter takes about log₂(n) gossip rounds to reach all of n members,
	// so a member that knows a group of n, itself and its view, suspects
	// after SuspectAfter × max(1, log₂(n)/2), never past ExcludeAfter. A
	// third of it is the heartbeat period at every size. 0 means 3 s.
	SuspectAfter float64
	// ExcludeAfter is the silence after which a member leaves the view; 0
	// means 4×SuspectAfter, and it is never below SuspectAfter.
	ExcludeAfter float64
	// Fanout is how many random view members get each heartbeat; 0 means 3.
	Fanout int
}

// DefaultConfig is the simulator's: a heartbeat every second to three
// members, suspicion after 3 s and exclusion after 10 s of silence.
func DefaultConfig() Config { return Config{ExcludeAfter: 10}.withDefaults() }

func (c Config) withDefaults() Config {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3
	}
	if c.ExcludeAfter <= 0 {
		c.ExcludeAfter = 4 * c.SuspectAfter
	}
	c.ExcludeAfter = max(c.ExcludeAfter, c.SuspectAfter)
	if c.Fanout < 1 {
		c.Fanout = 3
	}
	return c
}

// Transition is one change of a peer's state, as its observer saw it.
type Transition int

// Transitions, in escalation order. Cleared and Reabsorbed are recoveries:
// evidence of life revoked a suspicion or an exclusion.
const (
	Suspected  Transition = iota // alive → suspect: silent past SuspectAfter
	Cleared                      // suspect → alive
	Excluded                     // → excluded: silent past ExcludeAfter
	Reabsorbed                   // excluded → alive
)

func (t Transition) String() string {
	if t >= Suspected && t <= Reabsorbed {
		return [...]string{"suspected", "cleared", "excluded", "reabsorbed"}[t]
	}
	return "detect(?)"
}

// Deps is what a member does through its driver.
type Deps struct {
	// Send transmits a Heartbeat, or a Hello probing an excluded member, with
	// +Inf scalars (no information); a driver may stamp its own.
	Send func(to protocol.NodeID, m protocol.Msg)
	Rand func(n int) int // uniform in [0, n), from the caller's stream
	// On, if non-nil, observes every transition.
	On func(peer protocol.NodeID, t Transition)
}

type state uint8

const (
	alive state = iota
	suspect
	excluded
)

type peer struct {
	id      protocol.NodeID
	beat    uint64  // latest heartbeat counter seen
	heard   float64 // last evidence: an envelope, or heartbeat progress
	probeAt float64 // next Hello probe, while excluded
	state   state
}

// Member is one process's view and failure detector.
type Member struct {
	self protocol.NodeID
	cfg  Config
	d    Deps
	// peers is every member ever known, ascending by id. An excluded one
	// keeps its last counter, so a relay of that stale heartbeat cannot flap
	// it back into the view.
	peers   []peer
	view    []protocol.NodeID // the peers not excluded, ascending
	targets []protocol.NodeID // scratch: one round's heartbeat targets
	beat    uint64
	beatAt  float64
	left    bool
}

// New returns member self, its first heartbeat due one period after now. It
// knows nobody yet: Learn the boot view, or a contact to join through.
func New(self protocol.NodeID, cfg Config, d Deps, now float64) *Member {
	cfg = cfg.withDefaults()
	return &Member{self: self, cfg: cfg, d: d, beatAt: now + cfg.SuspectAfter/3}
}

// Leave exits the group silently; peers time the member out exactly as if it
// had failed (§5.2: a process leaves either by leaving or by failing).
func (m *Member) Leave() { m.left = true }

// Alive reports whether the member is participating.
func (m *Member) Alive() bool { return !m.left }

// Peers returns the view, ascending: every other member not excluded. The
// slice is the member's own; callers read it without retaining it.
func (m *Member) Peers() []protocol.NodeID { return m.view }

func (m *Member) search(id protocol.NodeID) (int, bool) {
	return slices.BinarySearchFunc(m.peers, id, func(p peer, id protocol.NodeID) int { return cmp.Compare(p.id, id) })
}

// Learn adds id to the view, alive as of now, unless it is known already,
// and reports whether it was news.
func (m *Member) Learn(id protocol.NodeID, now float64) bool {
	_, fresh := m.learn(id, 0, now)
	return fresh
}

// learn returns id's entry, added with counter beat if it is news; nil for
// the member itself, or once it left.
func (m *Member) learn(id protocol.NodeID, beat uint64, now float64) (p *peer, fresh bool) {
	if m.left || id == m.self {
		return nil, false
	}
	i, ok := m.search(id)
	if !ok {
		m.peers = slices.Insert(m.peers, i, peer{id: id, beat: beat, heard: now})
		v, _ := slices.BinarySearch(m.view, id)
		m.view = slices.Insert(m.view, v, id)
	}
	return &m.peers[i], !ok
}

// Heard records direct evidence: an envelope from `from` arrived. It clears
// a suspicion and re-absorbs an excluded member, whatever its heartbeat says,
// and reports whether `from` was news.
func (m *Member) Heard(from protocol.NodeID, now float64) bool {
	p, fresh := m.learn(from, 0, now)
	if p != nil && !fresh {
		m.revive(p, now)
	}
	return fresh
}

func (m *Member) revive(p *peer, now float64) {
	p.heard = now
	switch p.state {
	case suspect:
		p.state = alive
		m.emit(p.id, Cleared)
	case excluded:
		p.state = alive
		m.rebuild()
		m.emit(p.id, Reabsorbed)
	}
}

// Gossip merges a heartbeat table. An entry refreshes a member only on strict
// progress of its counter — a relayed stale heartbeat must not keep a dead
// member alive — and teaches the members this one never knew. An entry for
// this member above its own counter, its previous incarnation's, moves its
// counter past it.
func (m *Member) Gossip(hb protocol.Heartbeat, now float64) {
	for _, b := range hb.Beats {
		if b.ID == m.self {
			m.beat = max(m.beat, b.Count)
		} else if p, fresh := m.learn(b.ID, b.Count, now); p != nil && !fresh && b.Count > p.beat {
			p.beat = b.Count
			m.revive(p, now)
		}
	}
}

// Tick runs the heartbeat round if it is due and returns the next deadline,
// +Inf once the member left. A round advances the member's own counter,
// suspects each peer silent past the group's suspicion threshold (see
// Config.SuspectAfter) and excludes each one silent past ExcludeAfter,
// probes each excluded peer with a Hello on a slow jittered cadence —
// evidence of life that a falsely excluded or healed peer answers — and
// sends the heartbeat table, itself and its view, to Fanout distinct random
// view members.
func (m *Member) Tick(now float64) float64 {
	if m.left {
		return math.Inf(1)
	}
	if now < m.beatAt {
		return m.beatAt
	}
	m.beatAt = now + m.cfg.SuspectAfter/3
	m.beat++
	suspectAfter := min(m.cfg.SuspectAfter*max(1, math.Log2(float64(len(m.view)+1))/2), m.cfg.ExcludeAfter)
	for i := range m.peers {
		p := &m.peers[i]
		switch silent := now - p.heard; {
		case p.state != excluded && silent > m.cfg.ExcludeAfter:
			p.state = excluded
			m.rebuild()
			m.emit(p.id, Excluded)
		case p.state == alive && silent > suspectAfter:
			p.state = suspect
			m.emit(p.id, Suspected)
		}
		if p.state == excluded && now >= p.probeAt {
			p.probeAt = now + m.cfg.ExcludeAfter*(1+float64(m.d.Rand(256))/1024)
			m.d.Send(p.id, protocol.Hello{ID: m.self, Incumbent: math.Inf(1), ActAge: math.Inf(1)})
		}
	}
	// Fanout distinct targets in exactly as many draws (Floyd's sampling).
	hb := m.table()
	n := len(m.view)
	m.targets = m.targets[:0]
	for j := n - min(m.cfg.Fanout, n); j < n; j++ {
		to := m.view[m.d.Rand(j+1)]
		if slices.Contains(m.targets, to) {
			to = m.view[j]
		}
		m.targets = append(m.targets, to)
		m.d.Send(to, hb)
	}
	return m.beatAt
}

// Answer sends the heartbeat table to a process that announced itself with a
// Hello: a joiner learns the whole view in one message, and an excluded
// member probing this one hears that it is alive.
func (m *Member) Answer(to protocol.NodeID) {
	if !m.left {
		m.d.Send(to, m.table())
	}
}

// table is the heartbeat table, with +Inf scalars: this member and its view,
// each with the latest counter it knows.
func (m *Member) table() protocol.Heartbeat {
	hb := protocol.Heartbeat{Beats: make([]protocol.Beat, 1, len(m.view)+1), Incumbent: math.Inf(1), ActAge: math.Inf(1)}
	hb.Beats[0] = protocol.Beat{ID: m.self, Count: m.beat}
	for _, p := range m.peers {
		if p.state != excluded {
			hb.Beats = append(hb.Beats, protocol.Beat{ID: p.id, Count: p.beat})
		}
	}
	return hb
}

// rebuild recomputes the view in place after an exclusion or re-absorption.
func (m *Member) rebuild() {
	m.view = m.view[:0]
	for _, p := range m.peers {
		if p.state != excluded {
			m.view = append(m.view, p.id)
		}
	}
}

func (m *Member) emit(id protocol.NodeID, t Transition) {
	if m.d.On != nil {
		m.d.On(id, t)
	}
}
