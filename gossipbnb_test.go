package gossipbnb_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gossipbnb"
)

// TestEndToEnd exercises the whole public surface on one problem: solve a
// knapsack sequentially, record its basic tree, replay it, run the
// distributed simulation with crashes, and run the live cluster — all four
// answers must agree.
func TestEndToEnd(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	k := gossipbnb.RandomKnapsack(r, 14)

	seq := gossipbnb.Solve(k.Root(), gossipbnb.SolveOptions{})
	want := k.Best(seq)

	tree := gossipbnb.KnapsackTree(k, r, gossipbnb.CostModel{Mean: 0.02, Sigma: 0.3}, 0)
	if got := -gossipbnb.SequentialReplay(tree).Optimum; got != want {
		t.Fatalf("replay optimum %g, sequential %g", got, want)
	}

	sim := gossipbnb.Run(tree, gossipbnb.SimConfig{
		Procs: 4, Seed: 5, Prune: true, RecoveryQuiet: 10,
		Crashes: []gossipbnb.Crash{{Time: 5, Node: 3}},
	})
	if !sim.Terminated || -sim.Optimum != want {
		t.Fatalf("simulation: terminated=%v optimum=%g want %g", sim.Terminated, -sim.Optimum, want)
	}

	cl := gossipbnb.NewLiveCluster(tree, gossipbnb.LiveConfig{
		Nodes: 3, Seed: 5, TimeScale: 0.0005, Timeout: 30 * time.Second,
	})
	live := cl.Run()
	if !live.Terminated || -live.Optimum != want {
		t.Fatalf("live: terminated=%v optimum=%g want %g", live.Terminated, -live.Optimum, want)
	}
}

func TestCodeRoundTripThroughPublicAPI(t *testing.T) {
	c := gossipbnb.RootCode().Child(1, 0).Child(2, 1)
	parsed, err := gossipbnb.ParseCode(c.String())
	if err != nil || !parsed.Equal(c) {
		t.Fatalf("parse round trip failed: %v %v", parsed, err)
	}
	buf := c.Append(nil)
	got, n, err := gossipbnb.DecodeCode(buf)
	if err != nil || n != len(buf) || !got.Equal(c) {
		t.Fatalf("binary round trip failed: %v %d %v", got, n, err)
	}
}

func TestTableThroughPublicAPI(t *testing.T) {
	tb := gossipbnb.NewTable()
	tb.Insert(gossipbnb.RootCode().Child(1, 0))
	tb.Insert(gossipbnb.RootCode().Child(1, 1))
	if !tb.Complete() {
		t.Fatal("sibling pair did not contract to root")
	}
	enc := tb.Encode(nil)
	back, err := gossipbnb.DecodeTable(enc)
	if err != nil || !back.Complete() {
		t.Fatalf("table decode failed: %v", err)
	}
}

func TestBaselinesThroughPublicAPI(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	tree := gossipbnb.RandomTree(r, gossipbnb.RandomTreeConfig{
		Size:         201,
		Cost:         gossipbnb.CostModel{Mean: 0.05},
		BoundSpread:  1,
		FeasibleProb: 0.1,
	})
	d := gossipbnb.RunDIB(tree, gossipbnb.DIBConfig{Procs: 3, Seed: 9})
	if !d.Terminated || !d.OptimumOK {
		t.Fatalf("DIB failed: %+v", d)
	}
	c := gossipbnb.RunCentral(tree, gossipbnb.CentralConfig{Workers: 3, Seed: 9})
	if !c.Terminated || !c.OptimumOK {
		t.Fatalf("central failed: %+v", c)
	}
	g := gossipbnb.Run(tree, gossipbnb.SimConfig{Procs: 3, Seed: 9})
	if !g.Terminated || !g.OptimumOK {
		t.Fatalf("gossipbnb failed: %+v", g)
	}
	// All three find the same optimum.
	if d.Optimum != c.Optimum || c.Optimum != g.Optimum {
		t.Errorf("optima disagree: dib=%g central=%g ours=%g", d.Optimum, c.Optimum, g.Optimum)
	}
}

func TestSelectionRulesThroughPublicAPI(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	k := gossipbnb.RandomKnapsack(r, 12)
	var vals []float64
	for _, pool := range []gossipbnb.SolvePool{
		gossipbnb.NewBestFirst(), gossipbnb.NewDepthFirst(), gossipbnb.NewBreadthFirst(),
	} {
		res := gossipbnb.Solve(k.Root(), gossipbnb.SolveOptions{Pool: pool})
		vals = append(vals, k.Best(res))
	}
	if vals[0] != vals[1] || vals[1] != vals[2] {
		t.Errorf("selection rules disagree: %v", vals)
	}
}

func TestLatencyModelsExported(t *testing.T) {
	paper := gossipbnb.PaperLatency()
	if got := paper(100); got != 1.5e-3+5e-6*100 {
		t.Errorf("PaperLatency(100) = %g", got)
	}
	lin := gossipbnb.LinearLatency(1, 2)
	if lin(3) != 7 {
		t.Errorf("LinearLatency(1,2)(3) = %g", lin(3))
	}
}

func TestTraceLogExported(t *testing.T) {
	var lg gossipbnb.TraceLog
	r := rand.New(rand.NewSource(3))
	tree := gossipbnb.RandomTree(r, gossipbnb.RandomTreeConfig{
		Size:         101,
		Cost:         gossipbnb.CostModel{Mean: 0.05},
		BoundSpread:  1,
		FeasibleProb: 0.2,
	})
	res := gossipbnb.Run(tree, gossipbnb.SimConfig{Procs: 2, Seed: 3, Trace: &lg})
	if !res.Terminated {
		t.Fatal("did not terminate")
	}
	if lg.Len() == 0 {
		t.Error("no spans recorded through public TraceLog")
	}
}

// ExampleRun demonstrates the core guarantee: two of three processes crash
// mid-run and the search still finishes with the exact optimum.
func ExampleRun() {
	r := rand.New(rand.NewSource(1))
	tree := gossipbnb.RandomTree(r, gossipbnb.RandomTreeConfig{
		Size:         201,
		Cost:         gossipbnb.CostModel{Mean: 0.05},
		BoundSpread:  1,
		FeasibleProb: 0.2,
	})
	res := gossipbnb.Run(tree, gossipbnb.SimConfig{
		Procs: 3, Seed: 1, RecoveryQuiet: 3,
		Crashes: []gossipbnb.Crash{{Time: 2, Node: 1}, {Time: 2.1, Node: 2}},
	})
	fmt.Println("terminated:", res.Terminated, "optimum correct:", res.OptimumOK)
	// Output: terminated: true optimum correct: true
}
