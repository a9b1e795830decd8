package member

import (
	"testing"

	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/sim"
)

// lossy is a schedule that drops every message with probability p.
func lossy(p float64) *nemesis.Schedule {
	return nemesis.New(nemesis.Fault{Kind: nemesis.Loss, Prob: p})
}

// cluster wires n members on a fresh kernel; member 0 is the gossip server.
func cluster(seed int64, n int, cfg Config) (*sim.Kernel, *sim.Network, []*Member) {
	k := sim.New(seed)
	nw := sim.NewNetwork(k, sim.PaperLatency())
	ms := make([]*Member, n)
	servers := []sim.NodeID{0}
	for i := 0; i < n; i++ {
		id := sim.NodeID(i)
		ms[i] = New(k, nw, id, servers, cfg)
		m := ms[i]
		nw.Register(id, func(from sim.NodeID, msg sim.Message) { m.Deliver(from, msg) })
	}
	return k, nw, ms
}

func TestJoinPropagation(t *testing.T) {
	k, _, ms := cluster(1, 8, DefaultConfig())
	for _, m := range ms {
		m.Join()
	}
	k.Run(30)
	for i, m := range ms {
		if got := len(m.View()); got != 8 {
			t.Errorf("member %d view size = %d, want 8 (%v)", i, got, m.View())
		}
	}
}

func TestPeersExcludesSelf(t *testing.T) {
	k, _, ms := cluster(2, 4, DefaultConfig())
	for _, m := range ms {
		m.Join()
	}
	k.Run(20)
	for i, m := range ms {
		for _, p := range m.Peers() {
			if p == sim.NodeID(i) {
				t.Errorf("member %d's Peers contains itself", i)
			}
		}
	}
}

func TestLateJoiner(t *testing.T) {
	k, _, ms := cluster(3, 5, DefaultConfig())
	for _, m := range ms[:4] {
		m.Join()
	}
	k.Run(20)
	ms[4].Join()
	k.Run(60)
	for i, m := range ms {
		if !m.Knows(4) {
			t.Errorf("member %d never learned of late joiner", i)
		}
		_ = i
	}
	if len(ms[4].View()) != 5 {
		t.Errorf("late joiner view = %v", ms[4].View())
	}
}

func TestFailureDetection(t *testing.T) {
	cfg := Config{GossipInterval: 1, Fanout: 2, FailTimeout: 8}
	k, nw, ms := cluster(4, 6, cfg)
	for _, m := range ms {
		m.Join()
	}
	k.Run(20)
	nw.Crash(5)
	k.Run(120)
	for i, m := range ms[:5] {
		if m.Knows(5) {
			t.Errorf("member %d still believes crashed member 5 is alive", i)
		}
	}
}

func TestLeaveIsDetectedLikeFailure(t *testing.T) {
	cfg := Config{GossipInterval: 1, Fanout: 2, FailTimeout: 8}
	k, _, ms := cluster(5, 4, cfg)
	for _, m := range ms {
		m.Join()
	}
	k.Run(20)
	ms[3].Leave()
	if ms[3].Alive() {
		t.Error("Alive after Leave")
	}
	k.Run(120)
	for i, m := range ms[:3] {
		if m.Knows(3) {
			t.Errorf("member %d still has departed member in view", i)
		}
	}
}

func TestOnJoinOnLeaveCallbacks(t *testing.T) {
	cfg := Config{GossipInterval: 1, Fanout: 2, FailTimeout: 6}
	k, nw, ms := cluster(6, 3, cfg)
	joins, leaves := 0, 0
	ms[0].OnJoin = func(sim.NodeID) { joins++ }
	ms[0].OnLeave = func(sim.NodeID) { leaves++ }
	for _, m := range ms {
		m.Join()
	}
	k.Run(15)
	if joins != 2 {
		t.Errorf("joins = %d, want 2", joins)
	}
	nw.Crash(2)
	k.Run(120)
	if leaves == 0 {
		t.Error("no leave observed after crash")
	}
}

func TestToleratesMessageLoss(t *testing.T) {
	cfg := Config{GossipInterval: 1, Fanout: 2, FailTimeout: 15}
	k, nw, ms := cluster(7, 8, cfg)
	nw.SetNemesis(lossy(0.15))
	for _, m := range ms {
		m.Join()
	}
	k.Run(200)
	// §5.2: tolerance to a small percentage of message loss — live members
	// must not be evicted.
	for i, m := range ms {
		if got := len(m.View()); got != 8 {
			t.Errorf("member %d view size under loss = %d, want 8", i, got)
		}
	}
}

func TestDeadMemberIgnoresMessages(t *testing.T) {
	k, _, ms := cluster(8, 2, DefaultConfig())
	ms[0].Join()
	// member 1 never joined; deliveries must not resurrect it.
	ms[1].Deliver(0, viewMessage{pairs: []hbPair{{id: 0, hb: 3}}})
	k.Run(5)
	if ms[1].Knows(0) {
		t.Error("non-joined member built a view")
	}
}

func TestStaleRelayDoesNotResurrect(t *testing.T) {
	k := sim.New(1)
	nw := sim.NewNetwork(k, nil)
	m := New(k, nw, 0, []sim.NodeID{0}, Config{GossipInterval: 1, Fanout: 1, FailTimeout: 3})
	nw.Register(0, func(from sim.NodeID, msg sim.Message) { m.Deliver(from, msg) })
	m.Join()
	// Learn of member 1 at heartbeat 5, then silence until eviction.
	m.Deliver(2, viewMessage{pairs: []hbPair{{id: 1, hb: 5}}})
	k.Run(10)
	if m.Knows(1) {
		t.Fatal("member 1 not evicted")
	}
	// A slow peer relays the same stale heartbeat: must stay evicted.
	m.Deliver(2, viewMessage{pairs: []hbPair{{id: 1, hb: 5}}})
	if m.Knows(1) {
		t.Error("stale relay resurrected an evicted member")
	}
	// Genuine progress (a higher heartbeat) readmits it.
	m.Deliver(2, viewMessage{pairs: []hbPair{{id: 1, hb: 6}}})
	if !m.Knows(1) {
		t.Error("heartbeat progress did not readmit the member")
	}
}

func TestLostJoinIsRetried(t *testing.T) {
	cfg := Config{GossipInterval: 1, Fanout: 2, FailTimeout: 30}
	k, nw, ms := cluster(11, 4, cfg)
	nw.SetNemesis(lossy(0.6)) // well beyond "a small percentage": joins need retries
	for _, m := range ms {
		m.Join()
	}
	k.Run(300)
	for i, m := range ms {
		if len(m.View()) < 2 {
			t.Errorf("member %d still isolated after join retries: %v", i, m.View())
		}
	}
}

func TestHeartbeatFlapReadmits(t *testing.T) {
	// A member that goes quiet long enough is suspected and dropped. A direct
	// announcement from the member itself — first-hand evidence, unlike a
	// stale relay — must flap it straight back into the view, and renewed
	// silence must evict it again.
	k := sim.New(12)
	nw := sim.NewNetwork(k, nil)
	m := New(k, nw, 0, []sim.NodeID{0}, Config{GossipInterval: 1, Fanout: 1, FailTimeout: 3})
	nw.Register(0, func(from sim.NodeID, msg sim.Message) { m.Deliver(from, msg) })
	m.Join()
	m.Deliver(1, viewMessage{pairs: []hbPair{{id: 1, hb: 5}}})
	if !m.Knows(1) {
		t.Fatal("member 1 not admitted")
	}
	k.Run(10) // silence beyond FailTimeout: suspected and dropped
	if m.Knows(1) {
		t.Fatal("member 1 not evicted after silence")
	}
	// The member reappears with a direct join announce at its old heartbeat:
	// no counter progress, but first-hand.
	m.Deliver(1, joinMessage{id: 1})
	if !m.Knows(1) {
		t.Error("direct announce did not readmit the flapped member")
	}
	k.Run(20)
	if m.Knows(1) {
		t.Error("readmitted member survived renewed silence")
	}
}

func TestLateJoinAnnounceLostAndRetried(t *testing.T) {
	// A late joiner announces into a total blackout — the §4 adversary may
	// drop every message. When the network heals, the joiner's periodic
	// re-announce must get it absorbed without any outside help.
	cfg := Config{GossipInterval: 1, Fanout: 2, FailTimeout: 30}
	k, nw, ms := cluster(13, 5, cfg)
	for _, m := range ms[:4] {
		m.Join()
	}
	k.Run(20)
	nw.SetNemesis(lossy(1))
	ms[4].Join()
	k.Run(30)
	for i, m := range ms[:4] {
		if m.Knows(4) {
			t.Fatalf("member %d learned of the joiner through a lossless blackout", i)
		}
	}
	nw.SetNemesis(nil)
	k.Run(90)
	for i, m := range ms {
		if !m.Knows(4) {
			t.Errorf("member %d never absorbed the joiner after the network healed", i)
		}
	}
	if got := len(ms[4].View()); got != 5 {
		t.Errorf("joiner view size = %d, want 5 (%v)", got, ms[4].View())
	}
}

func TestConvergenceTimeUnderLoss(t *testing.T) {
	// View convergence slows under loss but stays bounded: with 30% of
	// messages vanishing, a late joiner must still be in every view within a
	// modest multiple of the lossless convergence time — and well inside
	// FailTimeout, or churn would outrun detection.
	cfg := Config{GossipInterval: 1, Fanout: 2, FailTimeout: 60}
	k, nw, ms := cluster(14, 8, cfg)
	nw.SetNemesis(lossy(0.3))
	for _, m := range ms[:7] {
		m.Join()
	}
	k.Run(30)
	ms[7].Join()
	joined := k.Now()
	allKnow := func() bool {
		for _, m := range ms {
			if !m.Knows(7) {
				return false
			}
		}
		return len(ms[7].View()) == 8
	}
	for !allKnow() {
		if k.Now() > joined+40 {
			t.Fatalf("views did not converge on the joiner within 40 s of virtual time under 30%% loss")
		}
		k.Run(k.Now() + 1)
	}
	if conv := k.Now() - joined; conv > 30 {
		t.Errorf("convergence took %.0f s — beyond the expected bound under 30%% loss", conv)
	}
}

func TestViewMessageSize(t *testing.T) {
	m := viewMessage{pairs: make([]hbPair, 7)}
	if m.Size() != 1+70 {
		t.Errorf("Size = %d", m.Size())
	}
	if (joinMessage{}).Size() <= 0 {
		t.Error("join size must be positive")
	}
}

func TestConfigDefaults(t *testing.T) {
	k := sim.New(1)
	nw := sim.NewNetwork(k, nil)
	m := New(k, nw, 0, nil, Config{})
	if m.cfg.GossipInterval <= 0 || m.cfg.Fanout < 1 || m.cfg.FailTimeout <= 0 {
		t.Errorf("defaults not applied: %+v", m.cfg)
	}
}

func TestScalabilityOfNetworkLoad(t *testing.T) {
	// §5.2 advantage (1): network load per member stays bounded as the group
	// grows (each member sends Fanout messages per interval regardless of n).
	load := func(n int) float64 {
		k, nw, ms := cluster(9, n, Config{GossipInterval: 1, Fanout: 1, FailTimeout: 10})
		for _, m := range ms {
			m.Join()
		}
		k.Run(100)
		return float64(nw.Stats().Sent) / float64(n)
	}
	l8, l64 := load(8), load(64)
	if l64 > 1.5*l8 {
		t.Errorf("per-member load grew with group size: n=8: %.1f, n=64: %.1f", l8, l64)
	}
}

func BenchmarkMembershipRound64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k, _, ms := cluster(int64(i), 64, DefaultConfig())
		for _, m := range ms {
			m.Join()
		}
		k.Run(50)
	}
}
