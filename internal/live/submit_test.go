package live

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/code"
	"gossipbnb/internal/protocol"
)

// submitWhenRunning retries SubmitRef until the cluster's Run has started.
func submitWhenRunning(t *testing.T, cl *Cluster, p bnb.Problem) *Handle {
	t.Helper()
	ref := bnb.SolveProblem(p)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		h, err := cl.SubmitRef(p, ref)
		if err == nil {
			return h
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("cluster never accepted the submission")
	return nil
}

// TestSubmitConcurrentInstances is the live half of the acceptance scenario:
// two problems submitted mid-run multiplex over the cluster already solving
// its boot problem, and each yields its own sequential optimum.
func TestSubmitConcurrentInstances(t *testing.T) {
	tr := liveTree(31, 201)
	cl := NewCluster(tr, Config{Nodes: 4, Seed: 31, TimeScale: 0.0005, Timeout: 60 * time.Second})
	resCh := make(chan Result, 1)
	go func() { resCh <- cl.Run() }()

	r := rand.New(rand.NewSource(32))
	p1 := bnb.RandomKnapsack(r, 12)
	p2 := bnb.RandomKnapsack(r, 13)
	h1 := submitWhenRunning(t, cl, p1)
	h2 := submitWhenRunning(t, cl, p2)
	if h1.ID == h2.ID || h1.ID == 0 || h2.ID == 0 {
		t.Fatalf("bad instance ids %d, %d", h1.ID, h2.ID)
	}

	res := <-resCh
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("boot problem failed: %+v", res)
	}
	for i, h := range []*Handle{h1, h2} {
		select {
		case <-h.Done():
		default:
			t.Fatalf("instance %d not resolved after Run returned", i+1)
		}
		if opt, ok := h.Result(); !ok {
			t.Errorf("instance %d: optimum %g does not match sequential reference", i+1, opt)
		}
		if h.Expanded() == 0 {
			t.Errorf("instance %d: no expansions recorded", i+1)
		}
	}
}

// TestSubmitInstanceCrashIsolation races a whole-node crash against three
// concurrently multiplexed problems: everything must still solve correctly
// on the survivors — the raced counterpart of the simulator's seeded
// instance-isolation chaos test.
func TestSubmitInstanceCrashIsolation(t *testing.T) {
	tr := liveTree(33, 201)
	cl := NewCluster(tr, Config{
		Nodes: 4, Seed: 33, TimeScale: 0.001,
		RecoveryQuiet: 25 * time.Millisecond,
		Timeout:       60 * time.Second,
	})
	resCh := make(chan Result, 1)
	go func() { resCh <- cl.Run() }()

	r := rand.New(rand.NewSource(34))
	h1 := submitWhenRunning(t, cl, bnb.RandomKnapsack(r, 12))
	h2 := submitWhenRunning(t, cl, bnb.RandomKnapsack(r, 13))
	time.AfterFunc(40*time.Millisecond, func() { cl.Crash(2) })

	res := <-resCh
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("boot problem failed despite recovery: %+v", res)
	}
	for i, h := range []*Handle{h1, h2} {
		if opt, ok := h.Result(); !ok {
			t.Errorf("instance %d: optimum %g wrong after crash", i+1, opt)
		}
	}
}

// TestSubmitAfterBootTerminated submits to a cluster whose boot problem —
// and therefore every node's instance 0 — already finished and was reaped:
// the idle loop's registry poll must pick the new instance up and solve it.
// Linger holds the otherwise-complete run open for the late submission.
func TestSubmitAfterBootTerminated(t *testing.T) {
	tr := liveTree(35, 51)
	cl := NewCluster(tr, Config{
		Nodes: 3, Seed: 35, TimeScale: 0.0002,
		Timeout: 60 * time.Second,
		Linger:  2 * time.Second,
	})
	resCh := make(chan Result, 1)
	go func() { resCh <- cl.Run() }()

	// Wait until every node detected boot termination.
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := 0
		for _, n := range cl.nodes {
			if detectedBoot(cl, n.id) {
				done++
			}
		}
		if done == len(cl.nodes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("boot problem never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}

	h := submitWhenRunning(t, cl, bnb.RandomKnapsack(rand.New(rand.NewSource(36)), 12))
	res := <-resCh
	if !res.Terminated {
		t.Fatalf("run did not terminate: %+v", res)
	}
	if opt, ok := h.Result(); !ok {
		t.Errorf("late instance optimum %g wrong", opt)
	}
}

// TestSubmitOverTCP runs the multiplexed cluster over real sockets: tagged
// instance traffic must survive the TCP framing end to end.
func TestSubmitOverTCP(t *testing.T) {
	tr := liveTree(37, 151)
	nw, err := NewTCPNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(tr, Config{
		Nodes: 3, Seed: 37, TimeScale: 0.0005,
		Network: nw,
		Timeout: 60 * time.Second,
	})
	resCh := make(chan Result, 1)
	go func() { resCh <- cl.Run() }()

	h := submitWhenRunning(t, cl, bnb.RandomKnapsack(rand.New(rand.NewSource(38)), 12))
	res := <-resCh
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("TCP boot problem failed: %+v", res)
	}
	if opt, ok := h.Result(); !ok {
		t.Errorf("TCP instance optimum %g wrong", opt)
	}
}

// TestSubmitRejectedWhenNotRunning pins the SubmitRef lifecycle errors.
func TestSubmitRejectedWhenNotRunning(t *testing.T) {
	tr := liveTree(39, 51)
	cl := NewCluster(tr, Config{Nodes: 2, Seed: 39, TimeScale: 0.0002})
	p := bnb.RandomKnapsack(rand.New(rand.NewSource(40)), 10)
	if _, err := cl.SubmitRef(p, bnb.SolveProblem(p)); err == nil {
		t.Error("SubmitRef accepted before Run")
	}
	res := cl.Run()
	if !res.Terminated {
		t.Fatalf("%+v", res)
	}
	if _, err := cl.SubmitRef(p, bnb.SolveProblem(p)); err == nil {
		t.Error("SubmitRef accepted after Run returned")
	}
}

// TestFrameInstanceRoundTrip pins tagged messages through the TCP frame
// codec: the instance ID survives, and untagged frames stay byte-identical
// to the legacy framing.
func TestFrameInstanceRoundTrip(t *testing.T) {
	inner := protocol.WorkGrant{Codes: []code.Code{code.Root().Child(1, 0)}, Incumbent: -2}
	frame, err := appendFrame(nil, 3, protocol.InstMsg{Instance: 7, Msg: inner})
	if err != nil {
		t.Fatal(err)
	}
	env, err := readFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	im, ok := env.Msg.(protocol.InstMsg)
	if !ok {
		t.Fatalf("decoded %T, want InstMsg", env.Msg)
	}
	if im.Instance != 7 {
		t.Errorf("instance = %d, want 7", im.Instance)
	}
	if g, ok := im.Msg.(protocol.WorkGrant); !ok || g.Incumbent != -2 || len(g.Codes) != 1 {
		t.Errorf("inner message mangled: %+v", im.Msg)
	}

	// Instance 0 wraps must encode exactly like the bare message.
	tagged, err := appendFrame(nil, 3, protocol.InstMsg{Instance: 0, Msg: inner})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := appendFrame(nil, 3, inner)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tagged, bare) {
		t.Error("instance-0 frame differs from legacy frame")
	}
}
