package live

import (
	"net"
	"testing"
	"time"

	"gossipbnb/internal/protocol"
)

// addAfter grows the running cluster by count joiners once the solve is
// underway, reporting their identities back on a channel.
func addAfter(t *testing.T, cl *Cluster, delay time.Duration, count int) <-chan NodeID {
	t.Helper()
	ids := make(chan NodeID, count)
	time.AfterFunc(delay, func() {
		for i := 0; i < count; i++ {
			id, err := cl.AddNode()
			if err != nil {
				t.Errorf("AddNode: %v", err)
				return
			}
			ids <- id
		}
	})
	return ids
}

// TestJoinDoublesLiveCluster is the live half of the headline scenario: a
// 2-node cluster doubles to 4 mid-solve via the join path. The joiners are
// absorbed into every peer view, bootstrap their tables, steal real work,
// and the run still terminates on the exact sequential optimum.
func TestJoinDoublesLiveCluster(t *testing.T) {
	tr := liveTree(40, 2001)
	cl := NewCluster(tr, Config{Nodes: 2, Seed: 40, TimeScale: 0.002})
	addAfter(t, cl, 10*time.Millisecond, 2)
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("churned run did not finish correctly: %+v", res)
	}
	if len(cl.nodes) != 4 {
		t.Fatalf("cluster has %d nodes, want 4", len(cl.nodes))
	}
	joinerWork := int64(0)
	for _, n := range cl.nodes[2:] {
		joinerWork += n.expanded.Load()
	}
	if joinerWork == 0 {
		t.Error("joiners expanded nothing — they never stole work")
	}
	// The Hello flood converged every view onto the full 4-member pool.
	for _, n := range cl.nodes {
		if got := len(n.peers()); got != 3 {
			t.Errorf("node %d view has %d peers, want 3", n.id, got)
		}
	}
	if res.Kinds.Sent[protocol.KindHello] == 0 || res.Kinds.Sent[protocol.KindWelcome] == 0 {
		t.Error("no join handshake traffic recorded")
	}
}

// TestJoinUnderLoss: the join handshake itself is unreliable traffic — the
// Hello or its Welcome can be dropped — so the joiner re-announces until it
// is absorbed, and the run still converges.
func TestJoinUnderLoss(t *testing.T) {
	tr := liveTree(41, 1001)
	cl := NewCluster(tr, Config{
		Nodes: 2, Seed: 41, TimeScale: 0.002,
		Nemesis:       mustFaults(t, "loss:0.25"),
		RecoveryQuiet: 30 * time.Millisecond,
	})
	addAfter(t, cl, 8*time.Millisecond, 2)
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("lossy churned run did not finish correctly: %+v", res)
	}
	if len(cl.nodes) != 4 {
		t.Fatalf("cluster has %d nodes, want 4", len(cl.nodes))
	}
}

// TestJoinTCPCluster runs the same doubling over real sockets: the joiners
// come up on fresh listeners nobody knew at boot, their addresses spread via
// the join gossip, and peers dial them on demand.
func TestJoinTCPCluster(t *testing.T) {
	nw, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	tr := liveTree(42, 2001)
	cl := NewCluster(tr, Config{Nodes: 2, Seed: 42, TimeScale: 0.002, Network: nw})
	addAfter(t, cl, 10*time.Millisecond, 2)
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("TCP churned run did not finish correctly: %+v", res)
	}
	joinerWork := int64(0)
	for _, n := range cl.nodes[2:] {
		joinerWork += n.expanded.Load()
	}
	if joinerWork == 0 {
		t.Error("TCP joiners expanded nothing")
	}
	for _, n := range cl.nodes {
		if got := len(n.peers()); got != 3 {
			t.Errorf("node %d view has %d peers, want 3", n.id, got)
		}
	}
}

// TestJoinCrashRestartMix: a joiner is a full citizen — it can crash and
// restart under its old identity like any boot-time member, and the cluster
// still finishes on the right optimum.
func TestJoinCrashRestartMix(t *testing.T) {
	tr := liveTree(43, 2001)
	cl := NewCluster(tr, Config{
		Nodes: 2, Seed: 43, TimeScale: 0.002,
		RecoveryQuiet: 30 * time.Millisecond,
	})
	ids := addAfter(t, cl, 8*time.Millisecond, 2)
	time.AfterFunc(25*time.Millisecond, func() {
		select {
		case id := <-ids:
			cl.Crash(id)
			time.AfterFunc(15*time.Millisecond, func() { cl.Restart(id) })
		default:
		}
	})
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("join+crash+restart run did not finish correctly: %+v", res)
	}
}

// TestAddNodeRefusedOffline: AddNode only works on a running cluster.
func TestAddNodeRefusedOffline(t *testing.T) {
	cl := NewCluster(liveTree(44, 101), Config{Nodes: 1, Seed: 44})
	if _, err := cl.AddNode(); err == nil {
		t.Error("AddNode before Run accepted")
	}
	res := cl.Run()
	if !res.Terminated {
		t.Fatalf("%+v", res)
	}
	if _, err := cl.AddNode(); err == nil {
		t.Error("AddNode after Run accepted")
	}
}

// TestTCPDialBackoff is the regression test for dial pacing: a node sending
// to a peer whose listener is not up yet — a joiner announcing before its
// contact listens, a machine mid-reboot — must trickle bounded reconnect
// attempts instead of hot-looping one TCP connect per message, and must
// eventually connect once the peer comes up.
func TestTCPDialBackoff(t *testing.T) {
	nw, err := NewTCPNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	// Reserve an address, then release it: node 1's gossiped address points
	// at a port nobody listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	nw.Learn(1, ln.Addr().String())

	const sends = 400
	for i := 0; i < sends; i++ {
		nw.Send(0, 1, protocol.WorkRequest{})
		time.Sleep(250 * time.Microsecond) // ≥100 ms of real time across the loop
	}
	attempts := nw.DialStats()
	if attempts == 0 {
		t.Fatal("no dial ever attempted")
	}
	// The exponential schedule allows ~log2(cap/base) warm-up dials plus one
	// per capped window; even on a slow machine that is a few dozen, never
	// one per send.
	if attempts > 40 {
		t.Errorf("%d dial attempts for %d sends — backoff is not suppressing the hot loop", attempts, sends)
	}

	// The peer comes up (on a fresh port — its own listener address
	// supersedes the stale gossiped one) and the very same send path must
	// now get through, within the bounded backoff window.
	inbox := nw.Add(1)
	timeout := time.After(5 * time.Second)
	for {
		nw.Send(0, 1, protocol.WorkDeny{})
		select {
		case env := <-inbox:
			if env.From != 0 {
				t.Fatalf("From = %d", env.From)
			}
			return
		case <-timeout:
			t.Fatal("sender never connected after the peer started listening")
		case <-time.After(time.Millisecond):
		}
	}
}
