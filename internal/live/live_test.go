package live

import (
	"math/rand"
	"testing"
	"time"

	"gossipbnb/internal/btree"
	"gossipbnb/internal/protocol"
)

func liveTree(seed int64, size int) *btree.Tree {
	r := rand.New(rand.NewSource(seed))
	return btree.Random(r, btree.RandomConfig{
		Size:         size,
		Cost:         btree.CostModel{Mean: 0.02, Sigma: 0.3},
		BoundSpread:  1,
		FeasibleProb: 0.1,
	})
}

func TestSingleNode(t *testing.T) {
	tr := liveTree(1, 101)
	cl := NewCluster(tr, Config{Nodes: 1, Seed: 1, TimeScale: 0.001})
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("%+v", res)
	}
	if res.Expanded != tr.Size() {
		t.Errorf("Expanded = %d, want %d", res.Expanded, tr.Size())
	}
}

func TestFourNodes(t *testing.T) {
	tr := liveTree(2, 301)
	cl := NewCluster(tr, Config{Nodes: 4, Seed: 2, TimeScale: 0.001})
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("%+v", res)
	}
	if res.Expanded < tr.Size() {
		t.Errorf("Expanded = %d < tree size %d", res.Expanded, tr.Size())
	}
	if res.MsgsSent == 0 || res.BytesSent == 0 {
		t.Error("no traffic")
	}
}

func TestWithLatencyAndLoss(t *testing.T) {
	tr := liveTree(3, 201)
	cl := NewCluster(tr, Config{
		Nodes: 4, Seed: 3, TimeScale: 0.001,
		Network: NewTransport(3, func(bytes int) time.Duration {
			return 200*time.Microsecond + time.Duration(bytes)*time.Microsecond
		}, 0),
		Nemesis: mustFaults(t, "loss:0.05"),
	})
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("%+v", res)
	}
}

func TestCrashRecovery(t *testing.T) {
	tr := liveTree(4, 301)
	cl := NewCluster(tr, Config{
		Nodes: 3, Seed: 4, TimeScale: 0.002,
		RecoveryQuiet: 20 * time.Millisecond,
		Timeout:       60 * time.Second,
	})
	// Crash two of three nodes shortly after start; the survivor must
	// recover the lost work — the Figure 6 scenario in real time.
	time.AfterFunc(80*time.Millisecond, func() { cl.Crash(1) })
	time.AfterFunc(90*time.Millisecond, func() { cl.Crash(2) })
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("survivor did not finish correctly: %+v", res)
	}
}

func TestTimeoutReported(t *testing.T) {
	tr := liveTree(5, 2001)
	cl := NewCluster(tr, Config{
		Nodes: 2, Seed: 5, TimeScale: 0.01, // deliberately too slow
		Timeout: 50 * time.Millisecond,
	})
	res := cl.Run()
	if res.Terminated {
		t.Error("run reported termination despite timeout")
	}
}

func TestTransportStats(t *testing.T) {
	tr := NewTransport(1, nil, 0)
	ch := tr.Register(1)
	tr.Send(0, 1, protocol.WorkDeny{})
	select {
	case env := <-ch:
		if env.From != 0 {
			t.Errorf("From = %d", env.From)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
	ns := tr.NetStats()
	if want := int64(protocol.WorkDeny{}.Size()); ns.Sent != 1 || ns.Dropped != 0 || ns.Bytes != want {
		t.Errorf("stats = %d %d %d, want 1 0 %d", ns.Sent, ns.Dropped, ns.Bytes, want)
	}
}

func TestTransportLoss(t *testing.T) {
	tr := NewTransport(7, nil, 1.0)
	tr.Register(1)
	for i := 0; i < 100; i++ {
		tr.Send(0, 1, protocol.WorkDeny{})
	}
	if ns := tr.NetStats(); ns.Dropped != 100 || ns.Lost != 100 {
		t.Errorf("stats = %+v, want 100 lost", ns)
	}
}
