package live

import (
	"sync"
	"testing"
	"time"

	"gossipbnb/internal/member"
	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/protocol"
)

func mustFaults(t *testing.T, specs ...string) *nemesis.Schedule {
	t.Helper()
	fs, err := nemesis.ParseAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	return nemesis.New(fs...)
}

func wantFullView(t *testing.T, cl *Cluster, nodes int) {
	t.Helper()
	for id := 0; id < nodes; id++ {
		if v := cl.PeerView(NodeID(id)); len(v) != nodes-1 {
			t.Errorf("node %d ended with view %v, want %d peers", id, v, nodes-1)
		}
	}
}

// TestSuspectStalledNodeExcludedTCP is the headline scenario: a real TCP
// cluster, one node stalled by the nemesis past ExcludeAfter, and not a
// single Crash call. The detector must notice the silence, exclude the
// stalled node from the live views, and the run must still terminate with
// the correct optimum — the stalled side solo-finishes via complement
// recovery, the healthy side recovers its lost pool the same way.
func TestSuspectStalledNodeExcludedTCP(t *testing.T) {
	tr := liveTree(31, 601)
	nw, err := NewTCPNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(tr, Config{
		Nodes: 3, Seed: 31, TimeScale: 0.002,
		Network:       nw,
		RecoveryQuiet: 20 * time.Millisecond,
		SuspectAfter:  20 * time.Millisecond,
		ExcludeAfter:  80 * time.Millisecond,
		Nemesis:       mustFaults(t, "stall:2:0.03-"),
		Linger:        400 * time.Millisecond,
		Timeout:       60 * time.Second,
	})
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("stalled-node run failed: %+v", res)
	}
	if res.Suspicions == 0 {
		t.Error("stalled node never suspected")
	}
	if res.Exclusions == 0 {
		t.Error("stalled node never excluded")
	}
	if res.Net.Cut == 0 {
		t.Error("nemesis stall cut nothing")
	}
	// The stall never heals, so the healthy nodes must end without node 2.
	for _, id := range []NodeID{0, 1} {
		for _, p := range cl.PeerView(id) {
			if p == 2 {
				t.Errorf("node %d still has the stalled node in view", id)
			}
		}
	}
}

// TestIdleNodeKeepsItsHeartbeats runs a failure-free cluster whose retry
// pace (RetryDelay) is longer than SuspectAfter, so a starving or idle node
// sleeps longer per wait than its peers tolerate silence. It must still wake
// for its own heartbeats: one wait ends at the earliest of the cores'
// WakeAt and the detector's next tick, and nothing is ever suspected.
func TestIdleNodeKeepsItsHeartbeats(t *testing.T) {
	tr := liveTree(41, 801)
	cl := NewCluster(tr, Config{
		Nodes: 4, Seed: 41, TimeScale: 0.002,
		RetryDelay:   60 * time.Millisecond,
		SuspectAfter: 30 * time.Millisecond,
		ExcludeAfter: 400 * time.Millisecond,
		Timeout:      60 * time.Second,
	})
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("failure-free run failed: %+v", res)
	}
	if res.Suspicions != 0 || res.Exclusions != 0 {
		t.Errorf("failure-free run raised %d suspicions and %d exclusions, want none",
			res.Suspicions, res.Exclusions)
	}
}

// TestHeartbeatLoadPerMember: the detector's load per member does not grow
// with the cluster (§5.2, and member.txt's caption). An 8-node in-memory
// cluster with the detector on solves a small tree and lingers idle after
// termination; over the whole run no node sends more than Fanout heartbeat
// messages per heartbeat period. A detector that pings every idle peer each
// period sends about n − 1 = 7 per node.
func TestHeartbeatLoadPerMember(t *testing.T) {
	const nodes = 8
	const suspect = 30 * time.Millisecond
	cl := NewCluster(liveTree(46, 101), Config{
		Nodes: nodes, Seed: 46, TimeScale: 0.0005,
		SuspectAfter: suspect,
		Linger:       600 * time.Millisecond,
		Timeout:      60 * time.Second,
	})
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("run failed: %+v", res)
	}
	periods := res.Elapsed.Seconds()/(suspect.Seconds()/3) + 1
	bound := float64(nodes*member.DefaultConfig().Fanout) * periods
	beats := res.Net.KindSent[protocol.KindHeartbeat] + res.Net.KindSent[protocol.KindPing]
	if float64(beats) > bound {
		t.Errorf("%d heartbeat messages in %.0f periods of %d nodes: %.1f per node per period, over the fanout bound %d",
			beats, periods, nodes, float64(beats)/periods/nodes, member.DefaultConfig().Fanout)
	}
}

// TestHealUnstalledNodeReabsorbedTCP un-stalls the node before the run ends:
// the exclusion must be revoked through the Hello/Welcome re-announcement
// path, the node re-absorbed with a table bootstrap, and every view whole
// again by the end.
func TestHealUnstalledNodeReabsorbedTCP(t *testing.T) {
	tr := liveTree(32, 301)
	nw, err := NewTCPNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(tr, Config{
		Nodes: 3, Seed: 32, TimeScale: 0.002,
		Network:       nw,
		RecoveryQuiet: 20 * time.Millisecond,
		SuspectAfter:  20 * time.Millisecond,
		ExcludeAfter:  70 * time.Millisecond,
		Nemesis:       mustFaults(t, "stall:2:0.03-0.25"),
		Linger:        900 * time.Millisecond,
		Timeout:       60 * time.Second,
	})
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("healed run failed: %+v", res)
	}
	if res.Exclusions == 0 {
		t.Error("stall window never produced an exclusion")
	}
	if res.Reabsorbed == 0 {
		t.Error("healed node never re-absorbed")
	}
	wantFullView(t, cl, 3)
}

// TestHealAsymmetricPartition severs only one direction: node 0 can hear
// everyone, nobody hears node 0. The silent-to-them node must be suspected
// by its peers, and after the heal the suspicion must be revoked — observed
// through the OnDetect event stream.
func TestHealAsymmetricPartition(t *testing.T) {
	tr := liveTree(33, 301)
	var mu sync.Mutex
	var events []DetectEvent
	cl := NewCluster(tr, Config{
		Nodes: 3, Seed: 33, TimeScale: 0.002,
		RecoveryQuiet: 20 * time.Millisecond,
		SuspectAfter:  15 * time.Millisecond,
		ExcludeAfter:  60 * time.Millisecond,
		Nemesis:       mustFaults(t, "oneway:0.02-0.18:0|1,2"),
		Linger:        800 * time.Millisecond,
		Timeout:       60 * time.Second,
		OnDetect: func(e DetectEvent) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		},
	})
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("asymmetric partition run failed: %+v", res)
	}
	saw := func(k DetectKind, peer NodeID) bool {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range events {
			if e.Kind == k && e.Peer == peer {
				return true
			}
		}
		return false
	}
	if !saw(member.Suspected, 0) {
		t.Error("unheard node 0 never suspected")
	}
	if !saw(member.Cleared, 0) && !saw(member.Reabsorbed, 0) {
		t.Error("suspicion of node 0 never revoked after the heal")
	}
	wantFullView(t, cl, 3)
}

// TestHealFalseSuspicionStorm violates the detector's accuracy wholesale: a
// constant network delay larger than ExcludeAfter makes every peer look dead
// all the time. Completeness plus revocability must still carry the run to
// the correct optimum — false suspicion costs time, never correctness.
func TestHealFalseSuspicionStorm(t *testing.T) {
	tr := liveTree(34, 201)
	cl := NewCluster(tr, Config{
		Nodes: 3, Seed: 34, TimeScale: 0.001,
		Network:       NewTransport(34, func(int) time.Duration { return 8 * time.Millisecond }, 0),
		RecoveryQuiet: 20 * time.Millisecond,
		SuspectAfter:  3 * time.Millisecond,
		ExcludeAfter:  6 * time.Millisecond,
		Timeout:       60 * time.Second,
	})
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("storm run failed: %+v", res)
	}
	if res.Suspicions == 0 {
		t.Error("pathological detector produced no suspicions")
	}
	if res.Reabsorbed == 0 {
		t.Error("no exclusion was ever revoked despite every peer being live")
	}
}

// TestNemesisSoakLive composes a partition, a flapping link, and a
// corruption window over one run and asserts the robustness invariants: the
// optimum matches the sequential reference, termination is reached,
// redundant expansion stays bounded, and no live node ends permanently
// excluded.
func TestNemesisSoakLive(t *testing.T) {
	tr := liveTree(35, 1001)
	cl := NewCluster(tr, Config{
		Nodes: 4, Seed: 35, TimeScale: 0.02,
		RecoveryQuiet: 20 * time.Millisecond,
		SuspectAfter:  20 * time.Millisecond,
		ExcludeAfter:  80 * time.Millisecond,
		Nemesis: mustFaults(t,
			"partition:0.05-0.15:0,1|2,3",
			"flap:0-2:0.04:0-0.3",
			"corrupt:0.1:0-0.2",
		),
		Linger:  700 * time.Millisecond,
		Timeout: 60 * time.Second,
	})
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("soak run failed: %+v", res)
	}
	// Partition islands may each redo the other's work, but expansion must
	// stay bounded — runaway re-expansion would show up here.
	if max := 3 * tr.Size(); res.Expanded > max {
		t.Errorf("Expanded = %d > %d: unbounded redundancy", res.Expanded, max)
	}
	if res.Net.Cut == 0 {
		t.Error("faults cut nothing")
	}
	if res.Net.Corrupt == 0 {
		t.Error("corruption window destroyed nothing")
	}
	wantFullView(t, cl, 4)
}

// TestNemesisCorruptTCPStream pushes a message stream through a TCP link
// under heavy byte corruption: every damaged frame must be rejected by the
// CRC and counted, every clean frame delivered, and the connection itself
// must survive — corruption is frame-local, never fatal to the stream.
func TestNemesisCorruptTCPStream(t *testing.T) {
	nw, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.SetNemesis(mustFaults(t, "corrupt:0.5"))
	inbox := nw.Register(1)
	const n = 400
	for i := 0; i < n; i++ {
		nw.Send(0, 1, protocol.WorkRequest{Incumbent: float64(i)})
	}
	got := 0
	for {
		select {
		case <-inbox:
			got++
			continue
		case <-time.After(500 * time.Millisecond):
		}
		break
	}
	ns := nw.NetStats()
	if got == 0 {
		t.Fatal("no clean frame survived")
	}
	if ns.Corrupt == 0 {
		t.Fatal("no frame was ever corrupted")
	}
	if int64(got)+ns.Corrupt != n {
		t.Errorf("delivered %d + corrupt %d != sent %d: frames vanished without a cause",
			got, ns.Corrupt, n)
	}
}
