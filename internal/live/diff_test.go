package live

// Diff-gossip tests on the live runtime: real goroutines, real clocks, and
// (in one case) real TCP sockets. The simulator proves the protocol; these
// prove the wiring — Config.DiffGossip reaches the cores, digest and subtree
// traffic crosses both transports, and the per-kind accounting attributes it.
// Names carry "DiffGossip" so CI's race filter (-run '...|Digest|Diff')
// drives this path under -race.

import (
	"testing"
	"time"

	"gossipbnb/internal/protocol"
)

// TestDiffGossipLiveCluster: a four-node in-memory cluster in diff mode
// finds the exact optimum, and the kind breakdown shows both the digest
// stream and zero legacy full-table pushes — the wire-cost shape the mode
// exists for.
func TestDiffGossipLiveCluster(t *testing.T) {
	tr := liveTree(41, 301)
	cl := NewCluster(tr, Config{
		Nodes: 4, Seed: 41, TimeScale: 0.001,
		DiffGossip: true,
		Timeout:    60 * time.Second,
	})
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("diff-gossip live cluster failed: %+v", res)
	}
	if n := res.Kinds.Sent[protocol.KindDigestReport]; n == 0 {
		t.Error("diff mode sent no digest reports")
	}
	if n := res.Kinds.Sent[protocol.KindTable]; n != 0 {
		t.Errorf("diff mode sent %d legacy full-table pushes, want 0", n)
	}
	if res.Kinds.Bytes[protocol.KindDigestReport] == 0 {
		t.Error("digest reports carried no bytes")
	}
}

// TestDiffGossipLiveFaultsRestart: duplication, reordering, loss, a
// crash-stop, and a crash-restart — all with diff gossip on. The restarted
// node rejoins with an empty table and must be rebuilt by the bootstrap
// walk under genuinely concurrent, adversarial delivery.
func TestDiffGossipLiveFaultsRestart(t *testing.T) {
	tr := liveTree(42, 401)
	cl := NewCluster(tr, Config{
		Nodes: 4, Seed: 42, TimeScale: 0.002,
		DiffGossip:    true,
		Nemesis:       mustFaults(t, "loss:0.05", "dup:0.2", "reorder:0.25:1ms"),
		RecoveryQuiet: 25 * time.Millisecond,
		Timeout:       60 * time.Second,
	})
	time.AfterFunc(50*time.Millisecond, func() { cl.Crash(3) })
	time.AfterFunc(70*time.Millisecond, func() { cl.Crash(1) })
	time.AfterFunc(130*time.Millisecond, func() { cl.Restart(1) })
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("diff-gossip chaos restart run failed: %+v", res)
	}
}

// TestDiffGossipOverTCP: one diff-mode round over real sockets — the frame
// codec, the lazy re-dial path, and the TCP per-kind accounting all see the
// three new message kinds.
func TestDiffGossipOverTCP(t *testing.T) {
	tr := liveTree(43, 301)
	nw, err := NewTCPNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(tr, Config{
		Nodes: 3, Seed: 43, TimeScale: 0.002,
		Network:    nw,
		DiffGossip: true,
		Timeout:    60 * time.Second,
	})
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("diff-gossip TCP cluster failed: %+v", res)
	}
	if res.Kinds.Sent[protocol.KindDigestReport] == 0 {
		t.Error("no digest reports crossed the sockets")
	}
}
