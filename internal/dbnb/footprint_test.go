package dbnb

import (
	"math/rand"
	"runtime"
	"testing"

	"gossipbnb/internal/bnb"
)

// What one simulated process costs before its first event, and what a
// 10 000-process solve keeps live once it has terminated. The harness is the
// sim-stress10k shape: a 30-item knapsack that is never shared, so 9 999 of
// the 10 000 processes never expand and hold only what construction gave
// them. DESIGN.md's per-process cost table itemises the budget.
const (
	footprintProcs = 10000
	// maxProcessBytes and maxProcessObjects bound the live heap one idle
	// process adds: its node (randomness stream included), its core and the
	// core's hooks, two tables with their root vertices, its network handler
	// and its share of the run-wide arrays.
	maxProcessBytes   = 1700
	maxProcessObjects = 13
	// maxSolvedHeap bounds the live heap of the whole harness after the solve
	// terminated: the per-process state plus whatever the run left behind in
	// tables, inboxes and the kernels' arenas.
	maxSolvedHeap = 21 << 20
)

// liveHeap collects twice, so that the victim cache of the core's table pool
// is empty too, and reads the live heap.
func liveHeap() (bytes, objects uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.HeapObjects
}

func TestProcessFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("10 000 processes")
	}
	k := bnb.RandomKnapsack(rand.New(rand.NewSource(7)), 30)
	ref := bnb.SolveProblem(k)
	cfg := Config{Procs: footprintProcs, Seed: 7, Prune: true, Shards: 2, MinPoolToShare: 1 << 30}

	b0, o0 := liveHeap()
	h := newHarness(cfg, []*spec{{w: problemWorkload(k, ref)}}, false)
	b1, o1 := liveHeap()
	perBytes := float64(int64(b1-b0)) / footprintProcs
	perObjects := float64(int64(o1-o0)) / footprintProcs
	t.Logf("per process before the first event: %.0f B, %.1f heap objects", perBytes, perObjects)
	if perBytes > maxProcessBytes {
		t.Errorf("a process holds %.0f B before its first event, budget %d", perBytes, maxProcessBytes)
	}
	if perObjects > maxProcessObjects {
		t.Errorf("a process holds %.1f heap objects before its first event, budget %d", perObjects, maxProcessObjects)
	}

	mr := h.run()
	b2, _ := liveHeap()
	solved := float64(int64(b2-b0)) / (1 << 20)
	t.Logf("live heap after the solve: %.1f MB", solved)
	if ir := mr.Instances[0]; !ir.Terminated || !ir.OptimumOK {
		t.Fatalf("solve terminated %v, optimum ok %v", ir.Terminated, ir.OptimumOK)
	}
	if solved > float64(maxSolvedHeap)/(1<<20) {
		t.Errorf("the terminated harness holds %.1f MB, budget %d MB", solved, maxSolvedHeap>>20)
	}
	runtime.KeepAlive(h)
}
