package member

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gossipbnb/internal/protocol"
)

// group is a deterministic test network for members: every message takes
// lat plus up to jit more (the paper's 1.5 ms flat by default), is lost with
// probability loss, and never reaches or leaves a crashed member. Each
// member's heartbeat rounds run at the deadlines its Tick returns; every
// delivery is Heard, and a heartbeat table is Gossip too.
type group struct {
	now   float64
	seq   int
	q     events
	rng   *rand.Rand
	loss  float64
	lat   float64
	jit   float64
	ms    []*Member
	down  []bool
	sent  int
	trans []string // every transition: "observer peer kind"
}

type event struct {
	at  float64
	seq int
	fn  func()
}

type events []event

func (e events) Len() int { return len(e) }
func (e events) Less(i, j int) bool {
	return e[i].at < e[j].at || e[i].at == e[j].at && e[i].seq < e[j].seq
}
func (e events) Swap(i, j int) { e[i], e[j] = e[j], e[i] }
func (e *events) Push(x any)   { *e = append(*e, x.(event)) }
func (e *events) Pop() any {
	old := *e
	x := old[len(old)-1]
	*e = old[:len(old)-1]
	return x
}

func (g *group) at(t float64, fn func()) {
	g.seq++
	heap.Push(&g.q, event{at: t, seq: g.seq, fn: fn})
}

// run fires every event up to until and leaves the clock there.
func (g *group) run(until float64) {
	for len(g.q) > 0 && g.q[0].at <= until {
		e := heap.Pop(&g.q).(event)
		g.now = e.at
		e.fn()
	}
	g.now = until
}

// newGroup builds n members that know nobody; cfg applies to all.
func newGroup(seed int64, n int, cfg Config) *group {
	g := &group{rng: rand.New(rand.NewSource(seed)), lat: 1.5e-3, down: make([]bool, n)}
	for i := 0; i < n; i++ {
		id := protocol.NodeID(i)
		g.ms = append(g.ms, New(id, cfg, Deps{
			Send: func(to protocol.NodeID, m protocol.Msg) { g.send(id, to, m) },
			Rand: g.rng.Intn,
			On: func(p protocol.NodeID, t Transition) {
				g.trans = append(g.trans, string(rune('0'+id))+" "+string(rune('0'+p))+" "+t.String())
			},
		}, g.now))
	}
	return g
}

func (g *group) send(from, to protocol.NodeID, m protocol.Msg) {
	if g.down[from] {
		return
	}
	g.sent++
	if g.loss > 0 && g.rng.Float64() < g.loss {
		return
	}
	delay := g.lat
	if g.jit > 0 {
		delay += g.jit * g.rng.Float64()
	}
	g.at(g.now+delay, func() {
		if int(to) < len(g.ms) && !g.down[to] {
			g.ms[to].Heard(from, g.now)
			if hb, ok := m.(protocol.Heartbeat); ok {
				g.ms[to].Gossip(hb, g.now)
			}
		}
	})
}

// start begins member i's heartbeat rounds.
func (g *group) start(i int) {
	if g.down[i] {
		return
	}
	if next := g.ms[i].Tick(g.now); !math.IsInf(next, 1) {
		g.at(next, func() { g.start(i) })
	}
}

// joinAll makes every member join through gossip server 0: it knows 0, and
// its heartbeats to 0 announce it.
func (g *group) joinAll(ids ...int) {
	for _, i := range ids {
		g.ms[i].Learn(0, g.now)
		g.start(i)
	}
}

// boot gives the members named (all of them by default) the boot view of
// each other, as both runtimes do at start, and starts their rounds.
func (g *group) boot(among ...int) {
	if len(among) == 0 {
		among = ids(len(g.ms))
	}
	for _, i := range among {
		for _, j := range among {
			g.ms[i].Learn(protocol.NodeID(j), g.now)
		}
		g.start(i)
	}
}

// knows reports whether id is in m's view.
func knows(m *Member, id protocol.NodeID) bool { return slices.Contains(m.Peers(), id) }

func ids(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestJoinPropagation(t *testing.T) {
	g := newGroup(1, 8, DefaultConfig())
	g.joinAll(ids(8)...)
	g.run(30)
	for i, m := range g.ms {
		if got := len(m.Peers()); got != 7 {
			t.Errorf("member %d has %d peers, want 7 (%v)", i, got, m.Peers())
		}
	}
}

func TestPeersExcludesSelf(t *testing.T) {
	g := newGroup(2, 4, DefaultConfig())
	g.joinAll(ids(4)...)
	g.run(20)
	for i, m := range g.ms {
		if knows(m, protocol.NodeID(i)) {
			t.Errorf("member %d's view contains itself: %v", i, m.Peers())
		}
	}
}

func TestLateJoiner(t *testing.T) {
	g := newGroup(3, 5, DefaultConfig())
	g.joinAll(0, 1, 2, 3)
	g.run(20)
	g.joinAll(4)
	g.run(60)
	for i, m := range g.ms[:4] {
		if !knows(m, 4) {
			t.Errorf("member %d never learned of the late joiner", i)
		}
	}
	if got := len(g.ms[4].Peers()); got != 4 {
		t.Errorf("late joiner's view = %v", g.ms[4].Peers())
	}
}

func TestFailureDetection(t *testing.T) {
	g := newGroup(4, 6, Config{SuspectAfter: 3, ExcludeAfter: 8, Fanout: 2})
	g.boot()
	g.run(20)
	g.down[5] = true
	g.run(120)
	for i, m := range g.ms[:5] {
		if knows(m, 5) {
			t.Errorf("member %d still believes crashed member 5 is alive", i)
		}
	}
}

func TestLeaveIsDetectedLikeFailure(t *testing.T) {
	g := newGroup(5, 4, Config{SuspectAfter: 3, ExcludeAfter: 8, Fanout: 2})
	g.boot()
	g.run(20)
	g.ms[3].Leave()
	if g.ms[3].Alive() {
		t.Error("Alive after Leave")
	}
	g.run(120)
	for i, m := range g.ms[:3] {
		if knows(m, 3) {
			t.Errorf("member %d still has the departed member in view", i)
		}
	}
}

// TestOnJoinOnLeaveCallbacks: the one transition callback reports a crashed
// member's whole escalation, suspected before excluded, once each per
// observer, and never reports members that stay alive.
func TestOnJoinOnLeaveCallbacks(t *testing.T) {
	g := newGroup(6, 3, Config{SuspectAfter: 3, ExcludeAfter: 6, Fanout: 2})
	g.joinAll(0, 1, 2)
	g.run(15)
	if len(g.ms[0].Peers()) != 2 || len(g.trans) != 0 {
		t.Fatalf("after the joins: view %v, transitions %v", g.ms[0].Peers(), g.trans)
	}
	g.down[2] = true
	g.run(120)
	want := []string{"0 2 suspected", "1 2 suspected", "0 2 excluded", "1 2 excluded"}
	if len(g.trans) != len(want) {
		t.Fatalf("transitions %v, want %v", g.trans, want)
	}
	for i := range want {
		if g.trans[i] != want[i] {
			t.Fatalf("transitions %v, want %v", g.trans, want)
		}
	}
}

func TestToleratesMessageLoss(t *testing.T) {
	g := newGroup(7, 8, Config{SuspectAfter: 3, ExcludeAfter: 15, Fanout: 2})
	g.loss = 0.15
	g.boot()
	g.run(200)
	// §5.2: tolerance to a small percentage of message loss — live members
	// must not be excluded.
	for i, m := range g.ms {
		if got := len(m.Peers()); got != 7 {
			t.Errorf("member %d has %d peers under loss, want 7", i, got)
		}
	}
}

// TestDeadMemberIgnoresMessages: a member that left builds no view from what
// still reaches it.
func TestDeadMemberIgnoresMessages(t *testing.T) {
	g := newGroup(8, 2, DefaultConfig())
	g.ms[1].Leave()
	g.ms[1].Heard(0, 1)
	g.ms[1].Gossip(protocol.Heartbeat{Beats: []protocol.Beat{{ID: 0, Count: 3}}}, 1)
	if knows(g.ms[1], 0) || g.sent != 0 {
		t.Errorf("a departed member learned %v and sent %d messages", g.ms[1].Peers(), g.sent)
	}
	if next := g.ms[1].Tick(100); !math.IsInf(next, 1) {
		t.Errorf("a departed member's next round is due at %v", next)
	}
}

// lone is a member whose sends go nowhere, driven by hand.
func lone(cfg Config) *Member {
	return New(0, cfg, Deps{Send: func(protocol.NodeID, protocol.Msg) {}, Rand: func(int) int { return 0 }}, 0)
}

// tickUntil runs m's rounds up to until.
func tickUntil(m *Member, until float64) {
	for t := m.Tick(0); t <= until; t = m.Tick(t) {
	}
}

func beat(id protocol.NodeID, n uint64) protocol.Heartbeat {
	return protocol.Heartbeat{Beats: []protocol.Beat{{ID: id, Count: n}}}
}

func TestStaleRelayDoesNotResurrect(t *testing.T) {
	m := lone(Config{SuspectAfter: 1, ExcludeAfter: 3, Fanout: 1})
	// Learn of member 1 at heartbeat 5, then silence until exclusion.
	m.Gossip(beat(1, 5), 0)
	tickUntil(m, 10)
	if knows(m, 1) {
		t.Fatal("member 1 not excluded")
	}
	// A slow peer relays the same stale heartbeat: it must stay out.
	m.Gossip(beat(1, 5), 10)
	if knows(m, 1) {
		t.Error("a stale relay resurrected an excluded member")
	}
	// Genuine progress (a higher heartbeat) readmits it.
	m.Gossip(beat(1, 6), 10)
	if !knows(m, 1) {
		t.Error("heartbeat progress did not readmit the member")
	}
}

func TestLostJoinIsRetried(t *testing.T) {
	g := newGroup(11, 4, Config{SuspectAfter: 3, ExcludeAfter: 30, Fanout: 2})
	g.loss = 0.6 // well beyond "a small percentage": joins need retries
	g.joinAll(ids(4)...)
	g.run(300)
	for i, m := range g.ms {
		if len(m.Peers()) < 1 {
			t.Errorf("member %d still isolated after join retries", i)
		}
	}
}

// TestHeartbeatFlapReadmits: a member that goes quiet long enough is
// suspected and excluded. Direct evidence from the member itself —
// first-hand, unlike a stale relay — must flap it straight back into the
// view, and renewed silence must exclude it again.
func TestHeartbeatFlapReadmits(t *testing.T) {
	m := lone(Config{SuspectAfter: 1, ExcludeAfter: 3, Fanout: 1})
	m.Gossip(beat(1, 5), 0)
	if !knows(m, 1) {
		t.Fatal("member 1 not admitted")
	}
	tickUntil(m, 10)
	if knows(m, 1) {
		t.Fatal("member 1 not excluded after silence")
	}
	// The member speaks again at its old heartbeat: no counter progress,
	// but first-hand.
	m.Heard(1, 10)
	if !knows(m, 1) {
		t.Error("direct evidence did not readmit the flapped member")
	}
	tickUntil(m, 30)
	if knows(m, 1) {
		t.Error("the readmitted member survived renewed silence")
	}
}

func TestLateJoinAnnounceLostAndRetried(t *testing.T) {
	// A late joiner announces into a total blackout — the §4 adversary may
	// drop every message. When the network heals, the joiner's periodic
	// re-announce must get it absorbed without any outside help.
	g := newGroup(13, 5, Config{SuspectAfter: 3, ExcludeAfter: 30, Fanout: 2})
	g.joinAll(0, 1, 2, 3)
	g.run(20)
	g.loss = 1
	g.joinAll(4)
	g.run(50)
	for i, m := range g.ms[:4] {
		if knows(m, 4) {
			t.Fatalf("member %d learned of the joiner through a blackout", i)
		}
	}
	g.loss = 0
	g.run(140)
	for i, m := range g.ms[:4] {
		if !knows(m, 4) {
			t.Errorf("member %d never absorbed the joiner after the network healed", i)
		}
	}
	if got := len(g.ms[4].Peers()); got != 4 {
		t.Errorf("joiner's view = %v", g.ms[4].Peers())
	}
}

func TestConvergenceTimeUnderLoss(t *testing.T) {
	// View convergence slows under loss but stays bounded: with 30% of
	// messages vanishing, a late joiner must be in every view within a
	// modest multiple of the lossless convergence time, and well inside
	// ExcludeAfter, or churn would outrun detection.
	g := newGroup(14, 8, Config{SuspectAfter: 3, ExcludeAfter: 60, Fanout: 2})
	g.loss = 0.3
	g.boot(0, 1, 2, 3, 4, 5, 6)
	g.run(30)
	g.joinAll(7)
	joined := g.now
	allKnow := func() bool {
		for _, m := range g.ms[:7] {
			if !knows(m, 7) {
				return false
			}
		}
		return len(g.ms[7].Peers()) == 7
	}
	for !allKnow() {
		if g.now > joined+40 {
			t.Fatalf("views did not converge on the joiner within 40 s under 30%% loss")
		}
		g.run(g.now + 1)
	}
	if conv := g.now - joined; conv > 30 {
		t.Errorf("convergence took %.0f s, beyond the expected bound under 30%% loss", conv)
	}
}

// TestViewMessageSize: the heartbeat table a round sends lists the sender and
// its whole view, and its wire size is the codec's.
func TestViewMessageSize(t *testing.T) {
	var got []protocol.Heartbeat
	m := New(0, Config{Fanout: 2}, Deps{
		Send: func(_ protocol.NodeID, msg protocol.Msg) { got = append(got, msg.(protocol.Heartbeat)) },
		Rand: func(n int) int { return n - 1 },
	}, 0)
	for id := protocol.NodeID(1); id <= 6; id++ {
		m.Learn(id, 0)
	}
	m.Tick(1)
	if len(got) != 2 {
		t.Fatalf("one round sent %d heartbeats, want Fanout 2", len(got))
	}
	hb := got[0]
	if len(hb.Beats) != 7 || hb.Beats[0] != (protocol.Beat{ID: 0, Count: 1}) {
		t.Errorf("table = %v, want the sender at counter 1 and its 6 peers", hb.Beats)
	}
	buf, err := protocol.Encode(nil, hb)
	if err != nil || len(buf) != hb.Size() || hb.Size() != 17+1+2*7 {
		t.Errorf("Size = %d, encoded %d bytes (%v), want %d", hb.Size(), len(buf), err, 17+1+2*7)
	}
}

func TestConfigDefaults(t *testing.T) {
	m := New(0, Config{}, Deps{}, 0)
	if m.cfg != (Config{SuspectAfter: 3, ExcludeAfter: 12, Fanout: 3}) {
		t.Errorf("defaults not applied: %+v", m.cfg)
	}
	if c := DefaultConfig(); c != (Config{SuspectAfter: 3, ExcludeAfter: 10, Fanout: 3}) {
		t.Errorf("DefaultConfig() = %+v", c)
	}
	if c := (Config{SuspectAfter: 2, ExcludeAfter: 1}).withDefaults(); c.ExcludeAfter != 2 {
		t.Errorf("ExcludeAfter below SuspectAfter kept: %+v", c)
	}
}

func TestScalabilityOfNetworkLoad(t *testing.T) {
	// §5.2 advantage (1): network load per member stays flat as the group
	// grows — each member sends Fanout heartbeats per period whatever n is.
	load := func(n int) float64 {
		g := newGroup(9, n, Config{SuspectAfter: 3, ExcludeAfter: 10, Fanout: 1})
		g.boot()
		g.run(100)
		return float64(g.sent) / float64(n)
	}
	l8, l64 := load(8), load(64)
	if l64 > 1.1*l8 || l8 > 1.1*l64 {
		t.Errorf("per-member load moved with group size: n=8: %.1f, n=64: %.1f", l8, l64)
	}
}

// TestFanoutDistinct: one round's heartbeats go to Fanout distinct members,
// all of the view when it is smaller, and never to an excluded member.
func TestFanoutDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var to []protocol.NodeID
	m := New(0, Config{SuspectAfter: 3, ExcludeAfter: 3, Fanout: 3}, Deps{
		Send: func(p protocol.NodeID, msg protocol.Msg) {
			if _, ok := msg.(protocol.Heartbeat); ok {
				to = append(to, p)
			}
		},
		Rand: rng.Intn,
	}, 0)
	for id := protocol.NodeID(1); id <= 5; id++ {
		m.Learn(id, 0)
	}
	for round := 1; round <= 50; round++ {
		to = to[:0]
		now := float64(round)
		for id := protocol.NodeID(1); id <= 4; id++ {
			m.Heard(id, now) // member 5 stays silent and is excluded at t = 4
		}
		m.Tick(now)
		seen := map[protocol.NodeID]bool{}
		for _, p := range to {
			if seen[p] || p == 5 && now > 3 {
				t.Fatalf("round %d sent to %v", round, to)
			}
			seen[p] = true
		}
		if len(to) != 3 {
			t.Fatalf("round %d sent %d heartbeats, want 3", round, len(to))
		}
	}
	small := New(0, Config{Fanout: 3}, Deps{Send: func(p protocol.NodeID, _ protocol.Msg) { to = append(to, p) }, Rand: rng.Intn}, 0)
	small.Learn(1, 0)
	to = to[:0]
	small.Tick(1)
	if len(to) != 1 || to[0] != 1 {
		t.Errorf("a one-peer view got heartbeats to %v", to)
	}
}

func BenchmarkMembershipRound64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := newGroup(int64(i), 64, DefaultConfig())
		g.boot()
		g.run(50)
	}
}

// scramble puts every member of g in an arbitrary state as of g.now: its own
// counter and round phase random, and a partial view that still connects the
// group — a random spanning tree, each edge known from one random end, plus
// each other pair known with probability 1/3 — whose every entry has a random
// counter, a last-heard time up to twice ExcludeAfter old, a random state of
// alive, suspect or excluded, and a probe due within one probe cadence.
func scramble(g *group, r *rand.Rand) {
	n := len(g.ms)
	cfg := g.ms[0].cfg
	knows := make([][]bool, n)
	for i := range knows {
		knows[i] = make([]bool, n)
		for j := range knows[i] {
			knows[i][j] = i != j && r.Intn(3) == 0
		}
	}
	for i := 1; i < n; i++ {
		j := r.Intn(i)
		if r.Intn(2) == 0 {
			knows[i][j] = true
		} else {
			knows[j][i] = true
		}
	}
	for i, m := range g.ms {
		m.beat = uint64(r.Intn(50))
		m.beatAt = g.now + r.Float64()*cfg.SuspectAfter/3
		m.peers = m.peers[:0]
		for j := range n {
			if knows[i][j] {
				m.peers = append(m.peers, peer{
					id:      protocol.NodeID(j),
					beat:    uint64(r.Intn(50)),
					heard:   g.now - r.Float64()*2*cfg.ExcludeAfter,
					probeAt: g.now + r.Float64()*1.25*cfg.ExcludeAfter,
					state:   state(r.Intn(3)),
				})
			}
		}
		m.rebuild()
	}
}

// converged reports whether every member of g has the full view with every
// peer alive.
func converged(g *group) bool {
	for _, m := range g.ms {
		if len(m.peers) != len(g.ms)-1 || len(m.view) != len(m.peers) {
			return false
		}
		for _, p := range m.peers {
			if p.state != alive {
				return false
			}
		}
	}
	return true
}

// TestConvergesFromAnyState: the membership is self-stabilizing (Dubois et
// al.). Whatever state its members start in (scramble), fair lossless
// heartbeat rounds bring every member to the full view, with nobody suspect
// or excluded, within convergeRounds rounds: at worst a pair whose only link
// is an exclusion waits out one probe cadence (1.25 ExcludeAfter, 15 rounds),
// and the view it brings back spreads in a few more.
func TestConvergesFromAnyState(t *testing.T) {
	const convergeRounds = 20
	cfg := Config{SuspectAfter: 3, ExcludeAfter: 12, Fanout: 3}
	period := cfg.SuspectAfter / 3
	worst := 0
	for _, n := range []int{4, 8, 16} {
		for seed := int64(1); seed <= 10; seed++ {
			g := newGroup(seed, n, cfg)
			g.now = 2 * cfg.ExcludeAfter
			scramble(g, rand.New(rand.NewSource(seed<<8|int64(n))))
			for i := range g.ms {
				g.start(i)
			}
			rounds := 0
			for ; !converged(g) && rounds < convergeRounds; rounds++ {
				g.run(g.now + period)
			}
			if !converged(g) {
				for i, m := range g.ms {
					t.Logf("member %d: view %v, peers %+v", i, m.Peers(), m.peers)
				}
				t.Fatalf("%d members, seed %d: not converged after %d rounds", n, seed, convergeRounds)
			}
			worst = max(worst, rounds)
		}
	}
	t.Logf("converged within %d rounds", worst)
}

// TestAnswerIsTheRoundTable: a member answers a Hello with the table its
// next round would send, without advancing its counter or drawing: itself
// and every peer it has not excluded.
func TestAnswerIsTheRoundTable(t *testing.T) {
	var sent []protocol.Msg
	m := New(0, Config{SuspectAfter: 3, ExcludeAfter: 6}, Deps{
		Send: func(_ protocol.NodeID, msg protocol.Msg) { sent = append(sent, msg) },
		Rand: func(int) int { t.Fatal("an answer drew"); return 0 },
	}, 0)
	for _, id := range []protocol.NodeID{1, 2, 3} {
		m.Learn(id, 0)
	}
	m.Gossip(beat(2, 7), 0)
	m.peers[2].state = excluded // member 3
	m.rebuild()
	m.Answer(9)
	want := []protocol.Beat{{ID: 0}, {ID: 1}, {ID: 2, Count: 7}}
	if len(sent) != 1 || !slices.Equal(sent[0].(protocol.Heartbeat).Beats, want) {
		t.Fatalf("answer = %+v, want one table %v", sent, want)
	}
	if m.beat != 0 {
		t.Errorf("answering moved the counter to %d", m.beat)
	}
}

// TestNoIdleSuspicionsAtScale: on a lossless network with sub-millisecond
// jittered latency, a group whose every member is alive raises no suspicion
// in 60 heartbeat rounds at 4 to 64 members, five seeds each. A peer's
// counter takes about log₂(n) gossip rounds to reach every member, so a
// threshold of three rounds at every size suspected live members from 8
// members up; the threshold scales with the group (Tick).
func TestNoIdleSuspicionsAtScale(t *testing.T) {
	cfg := Config{SuspectAfter: 0.03}
	for _, n := range []int{4, 8, 16, 32, 64} {
		suspicions, exclusions := 0, 0
		for seed := int64(1); seed <= 5; seed++ {
			g := newGroup(seed, n, cfg)
			g.lat, g.jit = 0.25e-3, 0.5e-3
			g.boot()
			g.run(60 * cfg.SuspectAfter / 3)
			for _, tr := range g.trans {
				switch {
				case strings.HasSuffix(tr, Suspected.String()):
					suspicions++
				case strings.HasSuffix(tr, Excluded.String()):
					exclusions++
				}
			}
		}
		t.Logf("%2d members: %d suspicions, %d exclusions", n, suspicions, exclusions)
		if suspicions != 0 || exclusions != 0 {
			t.Errorf("%d live members raised %d suspicions and %d exclusions over 5 seeds, want none",
				n, suspicions, exclusions)
		}
	}
}

// TestSuspicionScalesWithGroup: a silent peer is suspected after SuspectAfter
// × max(1, log₂(n)/2) of silence, n the member and its view: exactly
// SuspectAfter up to 4 members, twice it at 16. At the cap, ExcludeAfter, the
// peer is excluded without a suspicion first, as when the two are equal.
func TestSuspicionScalesWithGroup(t *testing.T) {
	cfg := Config{SuspectAfter: 3, ExcludeAfter: 8}
	for _, c := range []struct {
		n     int
		first Transition
		after float64 // silence at the first transition
	}{{2, Suspected, 3}, {3, Suspected, 3}, {4, Suspected, 3}, {8, Suspected, 4.5}, {16, Suspected, 6}, {64, Excluded, 8}} {
		var now, at float64
		first := Transition(-1)
		m := New(0, cfg, Deps{Send: func(protocol.NodeID, protocol.Msg) {}, Rand: func(int) int { return 0 },
			On: func(_ protocol.NodeID, tr Transition) {
				if first < 0 {
					first, at = tr, now
				}
			}}, 0)
		for id := 1; id < c.n; id++ {
			m.Learn(protocol.NodeID(id), 0)
		}
		// Rounds every 0.25 s, so the transition lands within a quarter
		// second of its threshold.
		for now = 0.25; first < 0 && now < 20; now += 0.25 {
			m.beatAt = now
			m.Tick(now)
		}
		if first != c.first || at <= c.after || at > c.after+0.25 {
			t.Errorf("%d members: %v after %g s of silence, want %v just past %g s", c.n, first, at, c.first, c.after)
		}
	}
}

// TestLeaverSuspectedThenExcludedAtScale: at 64 members, where suspicion
// waits three SuspectAfter, a member that leaves is still suspected and then
// excluded by every peer, suspected first, each once.
func TestLeaverSuspectedThenExcludedAtScale(t *testing.T) {
	const n = 64
	cfg := Config{SuspectAfter: 0.03}
	g := newGroup(1, n, cfg)
	g.lat, g.jit = 0.25e-3, 0.5e-3
	g.boot()
	g.run(20 * cfg.SuspectAfter / 3)
	left := g.now
	seen := make([][]Transition, n)
	for i, m := range g.ms {
		m.d.On = func(p protocol.NodeID, tr Transition) {
			if p == n-1 {
				seen[i] = append(seen[i], tr)
			}
		}
	}
	g.ms[n-1].Leave()
	g.run(left + 2*g.ms[0].cfg.ExcludeAfter)
	for i, got := range seen[:n-1] {
		if !slices.Equal(got, []Transition{Suspected, Excluded}) {
			t.Errorf("member %d saw the leaver %v, want suspected then excluded", i, got)
		}
		if knows(g.ms[i], n-1) {
			t.Errorf("member %d still has the leaver in view", i)
		}
	}
}
