package dbnb

import (
	"math/rand"
	"testing"

	"gossipbnb/internal/bnb"
)

// Whole-solve allocation ceilings. The per-operation guards here and in
// ctree, protocol, sim and bnb pin the hot paths exactly; these hold what a
// whole seeded solve allocates, which is where a regression off the hot path
// shows: set-up, grants, recovery, termination, the per-instance plumbing.
// Each ceiling is 1.5× the count when it was set. The runs are seeded, so the
// count moves with the code, and by a handful with when the collector
// empties the core's table pool.
func TestSolveAllocCeilings(t *testing.T) {
	knapsack := func(seed int64, items int) (*bnb.Knapsack, bnb.Result) {
		k := bnb.RandomKnapsack(rand.New(rand.NewSource(seed)), items)
		return k, bnb.SolveProblem(k)
	}
	cases := []struct {
		name  string
		max   float64
		large bool
		solve func() bool
	}{
		{"knapsack16/4procs", 2400, false, func() bool {
			k, ref := knapsack(11, 16)
			res := RunProblemRef(k, ref, Config{Procs: 4, Seed: 11, Prune: true})
			return res.Terminated && res.OptimumOK
		}},
		{"qap6/4procs/depth-first", 3900, false, func() bool {
			q := bnb.RandomQAP(rand.New(rand.NewSource(13)), 6)
			res := RunProblemRef(q, bnb.SolveProblem(q), Config{Procs: 4, Seed: 13, Prune: true, Select: DepthFirst})
			return res.Terminated && res.OptimumOK
		}},
		{"4instances/8procs", 10300, false, func() bool {
			insts := make([]Instance, 4)
			for i := range insts {
				k, _ := knapsack(int64(21+i*1_000_003), 13)
				insts[i] = Instance{Problem: k, Seed: int64(22 + i), StartTime: float64(i) * 5}
			}
			res := RunInstances(Config{Procs: 8, Seed: 21, Prune: true, Instances: insts})
			ok := res.Terminated
			for _, ir := range res.Instances {
				ok = ok && ir.OptimumOK
			}
			return ok
		}},
		{"knapsack30/10000procs", 500000, true, func() bool {
			k, ref := knapsack(7, 30)
			res := RunProblemRef(k, ref, Config{Procs: 10000, Seed: 7, Prune: true, Shards: 1})
			return res.Terminated && res.OptimumOK
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.large && testing.Short() {
				t.Skip("10 000 processes")
			}
			ok := true
			allocs := testing.AllocsPerRun(1, func() { ok = ok && c.solve() })
			t.Logf("%.0f allocations per solve", allocs)
			if !ok {
				t.Fatal("solve missed the sequential optimum or did not terminate")
			}
			if c.max > 0 && allocs > c.max {
				t.Errorf("%.0f allocations per solve, ceiling %.0f", allocs, c.max)
			}
		})
	}
}
