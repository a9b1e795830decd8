package gossipbnb_test

import (
	"math/rand"
	"testing"
	"time"

	"gossipbnb"
)

// TestSimLiveParity is the payoff of the shared protocol core: the same
// recorded tree, run failure-free through the deterministic simulator and
// through a real goroutine cluster, must find the same optimum with
// comparable amounts of exploration — one algorithm, two substrates.
func TestSimLiveParity(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	tree := gossipbnb.RandomTree(r, gossipbnb.RandomTreeConfig{
		Size:         501,
		Cost:         gossipbnb.CostModel{Mean: 0.02, Sigma: 0.3},
		BoundSpread:  1,
		FeasibleProb: 0.1,
	})
	want := tree.Stats().Optimum

	sim := gossipbnb.Run(tree, gossipbnb.SimConfig{Procs: 4, Seed: 77})
	if !sim.Terminated || !sim.OptimumOK {
		t.Fatalf("simulator run failed: %+v", sim)
	}

	cl := gossipbnb.NewLiveCluster(tree, gossipbnb.LiveConfig{
		Nodes: 4, Seed: 77, TimeScale: 0.0005, Timeout: 60 * time.Second,
	})
	live := cl.Run()
	if !live.Terminated || !live.OptimumOK {
		t.Fatalf("live run failed: %+v", live)
	}

	if sim.Optimum != live.Optimum || sim.Optimum != want {
		t.Errorf("optima disagree: sim=%g live=%g want=%g", sim.Optimum, live.Optimum, want)
	}

	// Failure-free, both runtimes must explore every node at least once and
	// must not blow past it with redundant work: the shared core's duplicate
	// suppression works the same on both substrates. The live bound is
	// looser — real timing lets end-game recovery re-create a little work.
	if sim.Expanded < tree.Size() || sim.Expanded > tree.Size()*3/2 {
		t.Errorf("sim explored %d nodes for a %d-node tree", sim.Expanded, tree.Size())
	}
	if live.Expanded < tree.Size() || live.Expanded > tree.Size()*5/2 {
		t.Errorf("live explored %d nodes for a %d-node tree", live.Expanded, tree.Size())
	}
}

// TestThreeWayParityKnapsack is the acceptance check of the code-driven
// expander: the same knapsack instance solved from initial data only — no
// recorded tree anywhere — by the sequential engine, the deterministic
// simulator, and a real goroutine cluster must agree on the optimum.
func TestThreeWayParityKnapsack(t *testing.T) {
	k := gossipbnb.RandomKnapsack(rand.New(rand.NewSource(41)), 16)
	seq := gossipbnb.SolveProblem(k)

	simCfg := gossipbnb.SimConfig{Procs: 4, Seed: 41, Prune: true}
	sim := gossipbnb.RunProblemRef(k, seq, simCfg)
	if !sim.Terminated || !sim.OptimumOK {
		t.Fatalf("simulator problem run failed: %+v", sim)
	}

	cl := gossipbnb.NewLiveProblemClusterRef(k, seq, gossipbnb.LiveConfig{
		Nodes: 4, Seed: 41, Prune: true, Timeout: 60 * time.Second,
	})
	live := cl.Run()
	if !live.Terminated || !live.OptimumOK {
		t.Fatalf("live problem run failed: %+v", live)
	}

	if sim.Optimum != seq.Value || live.Optimum != seq.Value {
		t.Errorf("optima disagree: seq=%g sim=%g live=%g", seq.Value, sim.Optimum, live.Optimum)
	}

	// Problem runs stay deterministic in (problem, seed, config).
	again := gossipbnb.RunProblemRef(k, seq, simCfg)
	if again.Time != sim.Time || again.Expanded != sim.Expanded || again.Optimum != sim.Optimum {
		t.Errorf("RunProblemRef not deterministic: (%g, %d, %g) vs (%g, %d, %g)",
			sim.Time, sim.Expanded, sim.Optimum, again.Time, again.Expanded, again.Optimum)
	}
}

// TestThreeWayParityQAP repeats the three-way check on the quadratic
// assignment workload under depth-first selection, the paper's motivating
// problem class.
func TestThreeWayParityQAP(t *testing.T) {
	q := gossipbnb.RandomQAP(rand.New(rand.NewSource(42)), 6)
	seq := gossipbnb.SolveProblem(q)

	sim := gossipbnb.RunProblemRef(q, seq, gossipbnb.SimConfig{
		Procs: 4, Seed: 42, Prune: true, Select: gossipbnb.SelectDepthFirst,
	})
	if !sim.Terminated || !sim.OptimumOK {
		t.Fatalf("simulator problem run failed: %+v", sim)
	}

	cl := gossipbnb.NewLiveProblemClusterRef(q, seq, gossipbnb.LiveConfig{
		Nodes: 4, Seed: 42, Prune: true, Select: gossipbnb.SelectDepthFirst,
		Timeout: 60 * time.Second,
	})
	live := cl.Run()
	if !live.Terminated || !live.OptimumOK {
		t.Fatalf("live problem run failed: %+v", live)
	}

	if sim.Optimum != seq.Value || live.Optimum != seq.Value {
		t.Errorf("optima disagree: seq=%g sim=%g live=%g", seq.Value, sim.Optimum, live.Optimum)
	}
}

// TestSimLiveParityDepthFirstPrune runs the parity check again under the
// other selection rule with pruning, covering the steal-smallest-bound and
// elimination paths of the shared core on both substrates.
func TestSimLiveParityDepthFirstPrune(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	tree := gossipbnb.RandomTree(r, gossipbnb.RandomTreeConfig{
		Size:         501,
		Cost:         gossipbnb.CostModel{Mean: 0.02, Sigma: 0.3},
		BoundSpread:  3,
		FeasibleProb: 0.2,
	})
	want := tree.Stats().Optimum

	sim := gossipbnb.Run(tree, gossipbnb.SimConfig{
		Procs: 4, Seed: 78, Select: gossipbnb.SelectDepthFirst, Prune: true,
	})
	if !sim.Terminated || !sim.OptimumOK {
		t.Fatalf("simulator run failed: %+v", sim)
	}

	cl := gossipbnb.NewLiveCluster(tree, gossipbnb.LiveConfig{
		Nodes: 4, Seed: 78, TimeScale: 0.0005, Timeout: 60 * time.Second,
		Select: gossipbnb.SelectDepthFirst, Prune: true,
	})
	live := cl.Run()
	if !live.Terminated || !live.OptimumOK {
		t.Fatalf("live run failed: %+v", live)
	}

	if sim.Optimum != live.Optimum || sim.Optimum != want {
		t.Errorf("optima disagree: sim=%g live=%g want=%g", sim.Optimum, live.Optimum, want)
	}
}
