package gossip

import (
	"fmt"
	"math"
	"testing"

	"gossipbnb/internal/sim"
)

func TestMessageSize(t *testing.T) {
	m := Message{Rumors: []Rumor{{ID: "ab", Data: []byte("xyz")}}}
	if m.Size() != 1+2+2+3 {
		t.Errorf("Size = %d", m.Size())
	}
	if (Message{}).Size() != 1 {
		t.Errorf("empty Size = %d", Message{}.Size())
	}
}

func TestStaticViewExcludesSelf(t *testing.T) {
	all := []sim.NodeID{0, 1, 2}
	v := StaticView(1, all)()
	if len(v) != 2 {
		t.Fatalf("view = %v", v)
	}
	for _, id := range v {
		if id == 1 {
			t.Error("view contains self")
		}
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	k := sim.New(1)
	nw := sim.NewNetwork(k, nil)
	a := NewAgent(k, nw, 0, func() []sim.NodeID { return nil }, Config{})
	if a.cfg.Fanout != 1 || a.cfg.Interval != 1 || a.cfg.MaxSends != 1 {
		t.Errorf("defaults not applied: %+v", a.cfg)
	}
}

func TestAddIsIdempotent(t *testing.T) {
	k := sim.New(1)
	nw := sim.NewNetwork(k, nil)
	a := NewAgent(k, nw, 0, func() []sim.NodeID { return nil }, DefaultConfig())
	a.Add(Rumor{ID: "r"})
	a.Add(Rumor{ID: "r"})
	if a.KnownCount() != 1 {
		t.Errorf("KnownCount = %d", a.KnownCount())
	}
}

func TestDeliverTriggersCallbackOnce(t *testing.T) {
	k := sim.New(1)
	nw := sim.NewNetwork(k, nil)
	a := NewAgent(k, nw, 0, func() []sim.NodeID { return nil }, DefaultConfig())
	calls := 0
	a.OnRumor = func(r Rumor) {
		if r.ID != "r" {
			t.Errorf("rumor ID = %q", r.ID)
		}
		calls++
	}
	msg := Message{Rumors: []Rumor{{ID: "r"}}}
	a.Deliver(1, msg)
	a.Deliver(2, msg)
	if calls != 1 {
		t.Errorf("OnRumor calls = %d, want 1", calls)
	}
}

func TestStoppedAgentIgnoresDelivery(t *testing.T) {
	k := sim.New(1)
	nw := sim.NewNetwork(k, nil)
	a := NewAgent(k, nw, 0, func() []sim.NodeID { return nil }, DefaultConfig())
	a.Stop()
	a.Deliver(1, Message{Rumors: []Rumor{{ID: "r"}}})
	if a.Knows("r") {
		t.Error("stopped agent accepted rumor")
	}
}

func TestSpreadSaturatesReliableNetwork(t *testing.T) {
	res := Spread(SpreadConfig{
		Nodes:  64,
		Gossip: Config{Fanout: 2, Interval: 1, MaxSends: 6},
		Seed:   1,
	})
	if res.Saturation != 1 {
		t.Errorf("saturation = %g (%d/%d reached)", res.Saturation, res.Reached, res.Nodes)
	}
	if math.IsNaN(res.Time) || res.Time <= 0 {
		t.Errorf("Time = %g", res.Time)
	}
	if res.Messages == 0 || res.Bytes == 0 {
		t.Error("no traffic recorded")
	}
}

func TestSpreadLogarithmicTime(t *testing.T) {
	// Epidemic push spreads in O(log n) rounds: time for 256 nodes should be
	// well under 4x the time for 16 nodes.
	cfg := Config{Fanout: 2, Interval: 1, MaxSends: 8}
	t16 := Spread(SpreadConfig{Nodes: 16, Gossip: cfg, Seed: 2}).Time
	t256 := Spread(SpreadConfig{Nodes: 256, Gossip: cfg, Seed: 2}).Time
	if t256 > 4*t16 {
		t.Errorf("spreading time grew super-logarithmically: n=16: %g, n=256: %g", t16, t256)
	}
}

func TestSpreadToleratesLoss(t *testing.T) {
	// §5.2: tolerance to a small percentage of message loss.
	res := Spread(SpreadConfig{
		Nodes:  64,
		Gossip: Config{Fanout: 2, Interval: 1, MaxSends: 10},
		Loss:   0.10,
		Seed:   3,
	})
	if res.Saturation < 0.95 {
		t.Errorf("saturation under 10%% loss = %g", res.Saturation)
	}
}

// TestSpreadRelayOnlyCoverage: a rumor every site forwards once, to two
// members, and then forgets — how a learned termination spreads (§5.4) —
// reaches the share s of a large system that solves s = 1 − e^(−2s), about
// 0.797. Rumors that cool after one round cool in the round that closes a
// measurement window, which is where Spread used to stop with their last
// pushes still in flight (0.49 at this size, 0.20 at 4096).
func TestSpreadRelayOnlyCoverage(t *testing.T) {
	res := Spread(SpreadConfig{Nodes: 1024, Gossip: Config{Fanout: 2, Interval: 1, MaxSends: 1}, Seed: 4})
	if res.Saturation < 0.75 || res.Saturation > 0.85 {
		t.Errorf("relay-only coverage at fan-out 2 = %g, want about 0.797", res.Saturation)
	}
}

func TestSpreadSingleNode(t *testing.T) {
	res := Spread(SpreadConfig{Nodes: 1, Gossip: DefaultConfig(), Seed: 1})
	if res.Reached != 1 {
		t.Errorf("Reached = %d", res.Reached)
	}
}

func TestSpreadDeterministic(t *testing.T) {
	cfg := SpreadConfig{Nodes: 32, Gossip: Config{Fanout: 1, Interval: 1, MaxSends: 5}, Loss: 0.05, Seed: 9}
	a, b := Spread(cfg), Spread(cfg)
	if a != b {
		t.Errorf("nondeterministic spread: %+v vs %+v", a, b)
	}
}

func TestCrashedAgentStopsGossiping(t *testing.T) {
	k := sim.New(1)
	nw := sim.NewNetwork(k, nil)
	ids := []sim.NodeID{0, 1}
	var agents [2]*Agent
	for i := range ids {
		id := ids[i]
		agents[i] = NewAgent(k, nw, id, StaticView(id, ids), Config{Fanout: 1, Interval: 1, MaxSends: 100})
		nw.Register(id, func(from sim.NodeID, m sim.Message) { agents[id].Deliver(from, m.(Message)) })
		agents[i].Start()
	}
	agents[0].Add(Rumor{ID: "r"})
	nw.Crash(0)
	k.Run(50)
	if agents[1].Knows("r") {
		t.Error("rumor escaped a crashed node")
	}
}

func BenchmarkSpread128(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Spread(SpreadConfig{
			Nodes:  128,
			Gossip: Config{Fanout: 2, Interval: 1, MaxSends: 6},
			Seed:   int64(i),
		})
	}
}

func ExampleSpread() {
	res := Spread(SpreadConfig{
		Nodes:  32,
		Gossip: Config{Fanout: 2, Interval: 1, MaxSends: 6},
		Seed:   1,
	})
	fmt.Printf("reached %d/%d nodes\n", res.Reached, res.Nodes)
	// Output: reached 32/32 nodes
}
