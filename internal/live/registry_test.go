package live

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/protocol"
)

// detectedBoot reports whether node id has detected the boot problem's
// termination (registry entry 0).
func detectedBoot(cl *Cluster, id NodeID) bool {
	cl.instMu.Lock()
	defer cl.instMu.Unlock()
	return cl.specs[0].done[id]
}

// bootResolved reports whether the boot problem resolved: every node crashed
// or detected its termination.
func bootResolved(cl *Cluster) bool {
	cl.instMu.Lock()
	defer cl.instMu.Unlock()
	return cl.specs[0].resolved
}

// waitFor polls cond every millisecond until it holds, failing the test
// after 30 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRestartAfterBootResolved restarts a node that crashed before the boot
// problem resolved, while Linger and a submitted instance keep the run open.
// The reborn node has no boot problem left to open, yet its failure
// detector pings and its peers' probes get answered, all carrying boot-core
// scalars; the submitted instance must still be solved.
func TestRestartAfterBootResolved(t *testing.T) {
	cl := NewCluster(liveTree(37, 101), Config{
		Nodes: 3, Seed: 37, TimeScale: 0.0005,
		SuspectAfter: 15 * time.Millisecond,
		Linger:       time.Second,
		Timeout:      60 * time.Second,
	})
	resCh := make(chan Result, 1)
	go func() { resCh <- cl.Run() }()
	waitFor(t, "the run to start", func() bool {
		cl.stopMu.Lock()
		defer cl.stopMu.Unlock()
		return cl.started
	})
	cl.Crash(2)
	waitFor(t, "the boot problem to resolve", func() bool { return bootResolved(cl) })
	h := submitWhenRunning(t, cl, bnb.RandomKnapsack(rand.New(rand.NewSource(38)), 12))
	cl.Restart(2)

	res := <-resCh
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("boot problem failed: %+v", res)
	}
	if opt, ok := h.Result(); !ok {
		t.Errorf("submitted instance: optimum %g does not match the sequential reference", opt)
	}
}

// TestResolvedBootNotReopened: an incarnation built after the boot problem
// resolved — a restart inside a Linger window — opens only the unresolved
// instances, and the membership messages it sends carry no incumbent and an
// activity age that anchors nobody.
func TestResolvedBootNotReopened(t *testing.T) {
	k := bnb.RandomKnapsack(rand.New(rand.NewSource(42)), 10)
	cl := NewProblemClusterRef(k, bnb.SolveProblem(k), Config{Nodes: 2, Seed: 42})
	defer cl.tr.Close()
	for _, n := range cl.nodes {
		cl.noteInstanceDone(cl.specs[0], n.id, 1)
	}
	cl.sweep(false)
	if !bootResolved(cl) {
		t.Fatal("the boot problem did not resolve with every node detecting it")
	}
	sub := cl.register(cl.specs[0].newExp, nil, 0, cl.nodes[0])
	inc := cl.newIncarnation(cl.nodes[1], 1, nil, nil)
	if _, ok := inc.mux.Get(0); ok || inc.boot != nil {
		t.Error("a resolved boot problem was reopened")
	}
	if _, ok := inc.mux.Get(sub.id); !ok {
		t.Error("the unresolved submitted instance was not opened")
	}
	if inc, age := inc.bootScalars(); !math.IsInf(inc, 1) || !math.IsInf(age, 1) {
		t.Errorf("boot scalars without a boot core = (%g, %g), want (+Inf, +Inf)", inc, age)
	}
}

// TestWholeClusterCrashed: with every node crashed nothing can resolve, and
// Run must say so well before its Timeout. No node detected termination, so
// there is no optimum either.
func TestWholeClusterCrashed(t *testing.T) {
	cl := NewCluster(liveTree(39, 2001), Config{
		Nodes: 3, Seed: 39, TimeScale: 0.01,
		Timeout: 30 * time.Second,
	})
	time.AfterFunc(20*time.Millisecond, func() {
		for id := range 3 {
			cl.Crash(NodeID(id))
		}
	})
	start := time.Now()
	res := cl.Run()
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("Run returned after %v with every node crashed", el)
	}
	if res.Terminated || res.OptimumOK {
		t.Errorf("a fully crashed cluster reported termination: %+v", res)
	}
	if !math.IsInf(res.Optimum, 1) {
		t.Errorf("Optimum = %g with no node detecting termination, want +Inf", res.Optimum)
	}
}

// TestResultOptimumFromDetectors: Result.Optimum is the best incumbent among
// the nodes that detected termination. A node crashed mid-run never detects
// and contributes nothing; the survivors' optimum is the sequential one.
func TestResultOptimumFromDetectors(t *testing.T) {
	tr := liveTree(40, 401)
	cl := NewCluster(tr, Config{
		Nodes: 4, Seed: 40, TimeScale: 0.002,
		RecoveryQuiet: 20 * time.Millisecond,
		Timeout:       60 * time.Second,
	})
	time.AfterFunc(30*time.Millisecond, func() { cl.Crash(3) })
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK || res.Optimum != tr.Stats().Optimum {
		t.Fatalf("survivors' optimum %g, want %g: %+v", res.Optimum, tr.Stats().Optimum, res)
	}
	if detectedBoot(cl, 3) {
		t.Error("the node crashed mid-run is booked as detecting termination")
	}
	for id := range 3 {
		if !detectedBoot(cl, NodeID(id)) {
			t.Errorf("survivor %d never detected termination", id)
		}
	}
}

// TestOpenAnchorsActivity pins which opens anchor a fresh core's
// remote-activity clock, read off ActivityAge right after the open: a
// joiner's first incarnation and every submitted instance are anchored (age
// ≈ 0), the boot problem on a restarted node — the same open a boot-time
// node makes — is not (its age is the cluster's whole age). Nothing runs:
// the incarnations are built and inspected on the test goroutine.
func TestOpenAnchorsActivity(t *testing.T) {
	k := bnb.RandomKnapsack(rand.New(rand.NewSource(41)), 10)
	cl := NewProblemClusterRef(k, bnb.SolveProblem(k), Config{Nodes: 3, Seed: 41})
	defer cl.tr.Close()
	const gap = 50 * time.Millisecond
	time.Sleep(gap)
	sub := cl.register(cl.specs[0].newExp, nil, 0, cl.nodes[0])

	restarted := cl.newIncarnation(cl.nodes[1], 1, nil, nil)
	joiner := &liveNode{id: 3, cl: cl}
	joiner.view.Store(&[]protocol.NodeID{0})
	joined := cl.newIncarnation(joiner, 0, nil, []NodeID{0})

	for _, c := range []struct {
		name   string
		inc    *incarnation
		id     protocol.InstanceID
		anchor bool
	}{
		{"restarted node, boot problem", restarted, 0, false},
		{"restarted node, submitted instance", restarted, sub.id, true},
		{"joiner, boot problem", joined, 0, true},
		{"joiner, submitted instance", joined, sub.id, true},
	} {
		e, ok := c.inc.mux.Get(c.id)
		if !ok {
			t.Fatalf("%s: not opened", c.name)
		}
		age := time.Duration(e.Core.ActivityAge() * float64(time.Second))
		if c.anchor && age >= gap/2 {
			t.Errorf("%s: activity age %v right after the open, want anchored near 0", c.name, age)
		}
		if !c.anchor && age < gap {
			t.Errorf("%s: activity age %v right after the open, want unanchored (≥ %v)", c.name, age, gap)
		}
	}
	if restarted.boot == nil || joined.boot == nil {
		t.Error("an incarnation that opened the boot problem has no boot core")
	}
}
