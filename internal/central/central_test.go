package central

import (
	"math/rand"
	"testing"

	"gossipbnb/internal/btree"
)

func smallTree(seed int64) *btree.Tree {
	r := rand.New(rand.NewSource(seed))
	return btree.Random(r, btree.RandomConfig{
		Size:         301,
		Cost:         btree.CostModel{Mean: 0.05, Sigma: 0.4},
		BoundSpread:  1,
		FeasibleProb: 0.1,
	})
}

func TestSingleWorker(t *testing.T) {
	tr := smallTree(1)
	res := Run(tr, Config{Workers: 1, Seed: 1})
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("%+v", res)
	}
	if res.Expanded != tr.Size() {
		t.Errorf("Expanded = %d, want %d", res.Expanded, tr.Size())
	}
}

func TestSpeedup(t *testing.T) {
	tr := smallTree(2)
	t1 := Run(tr, Config{Workers: 1, Seed: 3}).Time
	t4 := Run(tr, Config{Workers: 4, Seed: 3}).Time
	if t4 >= t1 {
		t.Errorf("no speedup: %g vs %g", t4, t1)
	}
}

func TestManagerSaturation(t *testing.T) {
	// With tiny node costs the manager's service time dominates: adding
	// workers beyond the saturation point must not keep helping, and
	// utilization must approach 1.
	r := rand.New(rand.NewSource(4))
	tr := btree.Random(r, btree.RandomConfig{
		Size:         2001,
		Cost:         btree.CostModel{Mean: 0.004}, // 4 ms/node vs 1 ms service
		BoundSpread:  1,
		FeasibleProb: 0.1,
	})
	t4 := Run(tr, Config{Workers: 4, Seed: 5})
	t32 := Run(tr, Config{Workers: 32, Seed: 5})
	if !t4.Terminated || !t32.Terminated {
		t.Fatal("runs did not terminate")
	}
	if t32.ManagerUtilization < 0.8 {
		t.Errorf("manager not saturated with 32 workers at fine granularity: util=%.2f", t32.ManagerUtilization)
	}
	// 8x workers must be far from 8x faster.
	if t32.Time < t4.Time/4 {
		t.Errorf("manager bottleneck missing: t4=%.2f t32=%.2f", t4.Time, t32.Time)
	}
}

func TestWorkerCrashRecovered(t *testing.T) {
	tr := smallTree(5)
	res := Run(tr, Config{
		Workers: 4, Seed: 7, AssignTimeout: 6,
		Crashes: []Crash{{Time: 2, Worker: 2}},
	})
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("worker crash not recovered: %+v", res)
	}
}

func TestAllWorkersCrashButOne(t *testing.T) {
	tr := smallTree(6)
	res := Run(tr, Config{
		Workers: 3, Seed: 9, AssignTimeout: 6,
		Crashes: []Crash{{Time: 1, Worker: 1}, {Time: 2, Worker: 3}},
	})
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("%+v", res)
	}
}

func TestPruning(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tr := btree.Random(r, btree.RandomConfig{
		Size:         1001,
		Cost:         btree.CostModel{Mean: 0.02},
		BoundSpread:  4,
		FeasibleProb: 0.25,
	})
	full := Run(tr, Config{Workers: 3, Seed: 11})
	pruned := Run(tr, Config{Workers: 3, Seed: 11, Prune: true})
	if !pruned.Terminated || !pruned.OptimumOK {
		t.Fatalf("%+v", pruned)
	}
	if pruned.Expanded >= full.Expanded {
		t.Errorf("pruning did not help: %d >= %d", pruned.Expanded, full.Expanded)
	}
}

func TestGrantBatching(t *testing.T) {
	tr := smallTree(8)
	b1 := Run(tr, Config{Workers: 4, Seed: 13, GrantBatch: 1})
	b8 := Run(tr, Config{Workers: 4, Seed: 13, GrantBatch: 8})
	if !b1.Terminated || !b8.Terminated {
		t.Fatal("runs did not terminate")
	}
	if b8.Net.Sent >= b1.Net.Sent {
		t.Errorf("batching did not reduce messages: %d vs %d", b8.Net.Sent, b1.Net.Sent)
	}
}

func TestDeterministic(t *testing.T) {
	tr := smallTree(9)
	cfg := Config{Workers: 5, Seed: 15, Crashes: []Crash{{Time: 2, Worker: 4}}, AssignTimeout: 6}
	a, b := Run(tr, cfg), Run(tr, cfg)
	if a != b {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func BenchmarkCentral8Workers(b *testing.B) {
	tr := smallTree(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(tr, Config{Workers: 8, Seed: int64(i)})
		if !res.Terminated {
			b.Fatal("did not terminate")
		}
	}
}

// TestReassignDeterministic: when several silent workers' assignments expire
// in one tick, their problems go back to the pool in worker-id order. With
// every bound equal the pool hands problems out in push order, so requeueing
// in map order made repeated runs of one crash scenario disagree.
func TestReassignDeterministic(t *testing.T) {
	tr := smallTree(8)
	for i := range tr.Nodes {
		tr.Nodes[i].Bound = 0
	}
	cfg := Config{
		Workers: 6, Seed: 13, AssignTimeout: 6,
		Crashes: []Crash{{Time: 2, Worker: 1}, {Time: 2, Worker: 3}, {Time: 2, Worker: 4}, {Time: 2, Worker: 5}},
	}
	first := Run(tr, cfg)
	if !first.Terminated || !first.OptimumOK {
		t.Fatalf("%+v", first)
	}
	for i := 0; i < 20; i++ {
		if res := Run(tr, cfg); res.Time != first.Time || res.Expanded != first.Expanded || res.Redundant != first.Redundant {
			t.Fatalf("run %d: time %g expanded %d redundant %d; first run %g %d %d",
				i, res.Time, res.Expanded, res.Redundant, first.Time, first.Expanded, first.Redundant)
		}
	}
}
