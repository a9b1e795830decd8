package live

import (
	"testing"
	"time"

	"gossipbnb/internal/protocol"
)

// --- transport-level chaos and restart ----------------------------------------

func TestTransportRestartFreshInbox(t *testing.T) {
	tr := NewTransport(1, nil, 0)
	tr.Register(1)
	tr.Crash(1)
	tr.Send(0, 1, protocol.WorkDeny{}) // down: vanishes
	ch := tr.Restart(1)
	if tr.Crashed(1) {
		t.Fatal("Crashed(1) after Restart")
	}
	tr.Send(0, 1, protocol.WorkDeny{Incumbent: 7})
	select {
	case env := <-ch:
		if env.Msg.(protocol.WorkDeny).Incumbent != 7 {
			t.Error("wrong message on restarted inbox")
		}
	case <-time.After(time.Second):
		t.Fatal("no delivery after restart")
	}
}

func TestTransportRestartDropsInFlight(t *testing.T) {
	// A message delayed across the crash+restart window targets the OLD
	// inbox: a rebooted machine does not receive what was in flight while it
	// was down.
	tr := NewTransport(1, func(int) time.Duration { return 50 * time.Millisecond }, 0)
	tr.Register(1)
	tr.Send(0, 1, protocol.WorkDeny{})
	tr.Crash(1)
	ch := tr.Restart(1)
	select {
	case <-ch:
		t.Error("in-flight pre-crash message delivered to the restarted inbox")
	case <-time.After(150 * time.Millisecond):
	}
	if dropped := tr.NetStats().Dropped; dropped != 1 {
		t.Errorf("dropped = %d, want 1 (the in-flight message)", dropped)
	}
}

func TestTransportChaosDuplicates(t *testing.T) {
	tr := NewTransport(3, nil, 0)
	tr.SetNemesis(mustFaults(t, "dup:1"))
	ch := tr.Register(1)
	const n = 20
	for i := 0; i < n; i++ {
		tr.Send(0, 1, protocol.WorkDeny{})
	}
	got := 0
	deadline := time.After(2 * time.Second)
	for got < 2*n {
		select {
		case <-ch:
			got++
		case <-deadline:
			t.Fatalf("delivered %d of %d (every message duplicated)", got, 2*n)
		}
	}
	if dup := tr.NetStats().Duplicated; dup != n {
		t.Errorf("duplicated = %d, want %d", dup, n)
	}
}

func TestTransportChaosReplayArrivesLate(t *testing.T) {
	tr := NewTransport(5, nil, 0)
	tr.SetNemesis(mustFaults(t, "replay:1:30ms"))
	ch := tr.Register(1)
	start := time.Now()
	tr.Send(0, 1, protocol.WorkDeny{})
	<-ch // original, immediate
	select {
	case <-ch:
		if since := time.Since(start); since < 30*time.Millisecond {
			t.Errorf("replay arrived after %v, want >= 30ms", since)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stale replay never arrived")
	}
}

func TestTCPRestartRelisten(t *testing.T) {
	nw, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.Register(1)
	nw.Crash(1)
	nw.Send(0, 1, protocol.WorkDeny{}) // dead socket: vanishes
	ch := nw.Restart(1)
	if ch == nil || nw.Crashed(1) {
		t.Fatal("restart did not revive the node")
	}
	// The sender's connection died with the crash; the next send re-dials
	// the reborn listener.
	nw.Send(0, 1, protocol.WorkDeny{Incumbent: 9})
	select {
	case env := <-ch:
		if env.Msg.(protocol.WorkDeny).Incumbent != 9 {
			t.Error("wrong message after TCP restart")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery to the restarted TCP node")
	}
}

// --- cluster-level chaos and restart ------------------------------------------

// TestRestartLiveCluster kills a node mid-run and reboots it: the rebooted
// process re-registers through the transport, rebuilds from gossip, and the
// cluster must finish with the exact optimum — with the restarted node
// detecting termination itself (it is not crashed at the end, so Run waits
// for it).
func TestRestartLiveCluster(t *testing.T) {
	tr := liveTree(31, 401)
	cl := NewCluster(tr, Config{
		Nodes: 3, Seed: 31, TimeScale: 0.002,
		RecoveryQuiet: 25 * time.Millisecond,
		Timeout:       60 * time.Second,
	})
	time.AfterFunc(60*time.Millisecond, func() { cl.Crash(1) })
	time.AfterFunc(120*time.Millisecond, func() { cl.Restart(1) })
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("restart cluster failed: %+v", res)
	}
}

// TestChaosLiveDupReorderReplay runs a live cluster over an in-memory
// transport that duplicates, reorders, and replays messages, under genuine
// concurrency and the race detector.
func TestChaosLiveDupReorderReplay(t *testing.T) {
	tr := liveTree(32, 301)
	cl := NewCluster(tr, Config{
		Nodes: 4, Seed: 32, TimeScale: 0.001,
		Network: NewTransport(32, func(bytes int) time.Duration { return 100 * time.Microsecond }, 0),
		Nemesis: mustFaults(t, "dup:0.25", "reorder:0.3:2ms", "replay:0.05:10ms"),
		Timeout: 60 * time.Second,
	})
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("chaotic live cluster failed: %+v", res)
	}
	if ns := cl.tr.NetStats(); ns.Duplicated == 0 || ns.Reordered == 0 || ns.Replayed == 0 {
		t.Errorf("chaos faults had no effect: dup=%d reorder=%d replay=%d",
			ns.Duplicated, ns.Reordered, ns.Replayed)
	}
}

// TestChaosLiveRestartEverything combines duplication, reordering, replay,
// loss, a crash-stop, and a crash-restart in one live run.
func TestChaosLiveRestartEverything(t *testing.T) {
	tr := liveTree(33, 401)
	cl := NewCluster(tr, Config{
		Nodes: 4, Seed: 33, TimeScale: 0.002,
		Nemesis:       mustFaults(t, "loss:0.05", "dup:0.2", "reorder:0.25:1ms"),
		RecoveryQuiet: 25 * time.Millisecond,
		Timeout:       60 * time.Second,
	})
	time.AfterFunc(50*time.Millisecond, func() { cl.Crash(3) })
	time.AfterFunc(70*time.Millisecond, func() { cl.Crash(1) })
	time.AfterFunc(130*time.Millisecond, func() { cl.Restart(1) })
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("everything-at-once live run failed: %+v", res)
	}
}

// TestRestartClusterOverTCP is the acceptance scenario on real sockets: a
// TCP cluster survives kill+restart of a node mid-run — the reborn node
// listens on its old address again and peers re-dial it lazily.
func TestRestartClusterOverTCP(t *testing.T) {
	tr := liveTree(34, 401)
	nw, err := NewTCPNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(tr, Config{
		Nodes: 3, Seed: 34, TimeScale: 0.002,
		Network:       nw,
		RecoveryQuiet: 25 * time.Millisecond,
		Timeout:       60 * time.Second,
	})
	time.AfterFunc(60*time.Millisecond, func() { cl.Crash(2) })
	time.AfterFunc(130*time.Millisecond, func() { cl.Restart(2) })
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("TCP restart cluster failed: %+v", res)
	}
}

// TestRestartNoopWhenAlive: restarting a node that never crashed must change
// nothing.
func TestRestartNoopWhenAlive(t *testing.T) {
	tr := liveTree(35, 101)
	cl := NewCluster(tr, Config{Nodes: 2, Seed: 35, TimeScale: 0.001})
	time.AfterFunc(5*time.Millisecond, func() { cl.Restart(1) })
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("%+v", res)
	}
}
