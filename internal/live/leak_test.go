package live

import (
	"runtime"
	"testing"
	"time"
)

// TestNoGoroutineLeak: a run owns every goroutine it starts. A 4-node TCP
// cluster goes through one AddNode and one crash-restart mid-solve; once Run
// has returned, the process's goroutine count must fall back to where it was
// before the network was built — node loops of both incarnations, listener
// and connection readers, dialers and timers all gone.
func TestNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	nw, err := NewTCPNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(liveTree(45, 2001), Config{
		Nodes: 4, Seed: 45, TimeScale: 0.004, Network: nw,
		RecoveryQuiet: 30 * time.Millisecond,
		Timeout:       60 * time.Second,
	})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		time.Sleep(5 * time.Millisecond)
		if _, err := cl.AddNode(); err != nil {
			t.Errorf("AddNode: %v", err)
		}
		cl.Crash(1)
		time.Sleep(10 * time.Millisecond)
		cl.Restart(1)
	}()
	res := cl.Run()
	<-churned
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("churned TCP run did not finish correctly: %+v", res)
	}
	if len(cl.nodes) != 5 || cl.nodes[1].gen.Load() != 1 {
		t.Fatalf("churn missed the run: %d nodes, node 1 in generation %d; want 5 and 1",
			len(cl.nodes), cl.nodes[1].gen.Load())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines 5 s after Run returned, %d before the run:\n%s",
				runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
