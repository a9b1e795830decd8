package gossipbnb

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestStress100000Smoke boots 100,000 simulated processes on the sharded
// substrate and runs a capped virtual-time window of a tree replay: work
// seeds at one process and spreads while everyone else starves, probes and
// retries — a pure scale smoke of registration, boot stagger, the request/
// retry machinery and the mesh barrier at 100× the paper's largest pool.
// No termination is expected inside the cap.
func TestStress100000Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-process smoke skipped in -short mode")
	}
	r := rand.New(rand.NewSource(31))
	tr := RandomTree(r, RandomTreeConfig{
		Size: 200001, Cost: CostModel{Mean: 0.05, Sigma: 0.3},
		BoundSpread: 1, FeasibleProb: 0.05,
	})
	res := Run(tr, SimConfig{
		Procs: 100000, Seed: 31, Shards: runtime.GOMAXPROCS(0), MaxTime: 2,
	})
	if res.Terminated {
		t.Error("100k smoke terminated inside a 2-virtual-second cap — workload misconfigured")
	}
	if res.Expanded == 0 {
		t.Error("no work expanded: the pool never booted")
	}
	if res.Events < 100000 {
		t.Errorf("only %d events fired across 100k processes", res.Events)
	}
}
