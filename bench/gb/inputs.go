package gb

import (
	"math/rand"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/sim"
)

// Sizes parameterizes every workload. FullSizes is what the benchmark
// measures; TinySizes keeps the self-tests under a second.
type Sizes struct {
	// Inputs per cycle, per workload family: a run cycles through this many
	// inputs drawn from its seed, so count metrics are means over inputs
	// and a seed's luck with one tree or instance does not set the result.
	Table1Inputs, FaultsInputs, StressInputs, MultiInputs, LiveInputs int

	Table1Nodes, Table1Procs int

	FaultsNodes, FaultsProcs, FaultsCrashes int

	// Problem instances are picked as the one of Draws random candidates
	// whose sequential tree is nearest Target expansions (see nearestQAP).
	StressProcs, StressItems, StressTarget, StressDraws int

	MultiInstances, MultiProcs, MultiOrder, MultiTarget, MultiDraws int

	LiveNodes, LiveOrder, LiveTarget, LiveDraws int

	// HarnessNodes is the loopback harness's core count.
	HarnessNodes int
}

// FullSizes are the measured sizes. They are cut from the issue's 2-5 s
// solves so that a 10 s run holds whole cycles over several inputs: the
// driver compares runs across seeds, and only averaging over inputs keeps a
// randomized protocol's counts within a bound from seed to seed.
var FullSizes = Sizes{
	Table1Inputs: 6, Table1Nodes: 12001, Table1Procs: 100,
	FaultsInputs: 200, FaultsNodes: 2501, FaultsProcs: 32, FaultsCrashes: 24,
	// 265 best-first expansions at 0.01 s each end the solve between the
	// second and third probe round, so every seed pays the same rounds; 200
	// draws (0.1 ms each) land within a couple of expansions of it.
	StressInputs: 1, StressProcs: 10000, StressItems: 30, StressTarget: 265, StressDraws: 200,
	MultiInputs: 2, MultiInstances: 8, MultiProcs: 16, MultiOrder: 8, MultiTarget: 13000, MultiDraws: 3,
	// An order-9 candidate costs 0.1 s to size, so three draws per input is
	// what set-up can afford; six inputs average out the rest of the
	// instance-to-instance difference in solve time and messages.
	LiveInputs: 6, LiveNodes: 4, LiveOrder: 9, LiveTarget: 90000, LiveDraws: 3,
	HarnessNodes: 8,
}

// TinySizes is the smoke-test preset: the same shapes at toy sizes.
var TinySizes = Sizes{
	Table1Inputs: 1, Table1Nodes: 301, Table1Procs: 8,
	FaultsInputs: 2, FaultsNodes: 301, FaultsProcs: 8, FaultsCrashes: 6,
	StressInputs: 1, StressProcs: 64, StressItems: 14, StressTarget: 100, StressDraws: 4,
	MultiInputs: 1, MultiInstances: 2, MultiProcs: 4, MultiOrder: 5, MultiTarget: 100, MultiDraws: 1,
	LiveInputs: 1, LiveNodes: 3, LiveOrder: 6, LiveTarget: 1000, LiveDraws: 1,
	HarnessNodes: 4,
}

// subSeed derives the generator seed of input i of a stream from the run
// seed with the simulator's own splitmix64 derivation, so workloads and
// inputs draw unrelated streams from one --seed.
func subSeed(seed int64, stream, i int) int64 {
	return sim.DeriveSeed(sim.DeriveSeed(seed, stream), i)
}

// Random QAP and knapsack trees of one order differ 3x in size, which no
// bound on solve_wall_s would survive from seed to seed. So an instance is
// the one of `draws` candidates whose sequential tree is nearest `target`
// expansions. A fixed number of draws — not rejection sampling into a band —
// keeps set-up the same work on every seed. The yardstick is internal/bnb's
// sequential engine, so a change to its bounding or branching re-draws the
// inputs.

// nearestKnapsack sizes candidates by their best-first tree: best-first is
// the simulator's default selection rule, so the reference is the tree the
// distributed run searches.
func nearestKnapsack(seed int64, items, target, draws int) (*bnb.Knapsack, bnb.Result) {
	var (
		best *bnb.Knapsack
		ref  bnb.Result
	)
	for j := 0; j < draws; j++ {
		k := bnb.RandomKnapsack(rand.New(rand.NewSource(subSeed(seed, 101, j))), items)
		r := bnb.Solve(k.Root(), bnb.Options{Pool: bnb.NewBestFirst()})
		if best == nil || abs(r.Expanded-target) < abs(ref.Expanded-target) {
			best, ref = k, r
		}
	}
	return best, ref
}

// nearestQAP sizes candidates by their depth-first tree (bnb.SolveProblem),
// the rule the QAP workloads run under.
func nearestQAP(seed int64, order, target, draws int) (*bnb.QAP, bnb.Result) {
	var (
		best *bnb.QAP
		ref  bnb.Result
	)
	for j := 0; j < draws; j++ {
		q := bnb.RandomQAP(rand.New(rand.NewSource(subSeed(seed, 102, j))), order)
		r := bnb.SolveProblem(q)
		if best == nil || abs(r.Expanded-target) < abs(ref.Expanded-target) {
			best, ref = q, r
		}
	}
	return best, ref
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
