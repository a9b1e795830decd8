package dbnb

import (
	"math/rand"
	"testing"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/sim"
	"gossipbnb/internal/trace"
)

// shardKnapsack is the shared workload for the shard-count tests: big
// enough that work actually migrates between processes, small enough to
// run at four shard counts in one test.
func shardKnapsack() (bnb.Problem, bnb.Result) {
	k := bnb.RandomKnapsack(rand.New(rand.NewSource(17)), 18)
	return k, bnb.SolveProblem(k)
}

// TestShardCountInvariance is the contract Config.Shards documents: with
// per-(Seed, id) node RNG streams, a failure-free run's results are a
// function of (problem, config, Seed) only — the shard count may reorder
// simultaneous events between DIFFERENT processes but never changes any
// process's own trajectory. Optimum, total and per-process expansions,
// unique work, and completion counts must all match exactly.
func TestShardCountInvariance(t *testing.T) {
	// Two workloads: a pruned code-driven knapsack (incumbent circulation,
	// light expansion) and an unpruned tree replay (all 301 nodes must be
	// expanded somewhere — guaranteed work migration, every per-process
	// counter nonzero-able).
	k, ref := shardKnapsack()
	tr := smallTree(4)
	cfg := Config{Procs: 64, Seed: 42, Prune: true}

	type fingerprint struct {
		res     Result
		perProc []int
	}
	runAt := func(shards int) fingerprint {
		c := cfg
		c.Shards = shards
		res := RunProblemRef(k, ref, c)
		mustTerminate(t, res)
		tres := Run(tr, Config{Procs: 32, Seed: 6, Shards: shards})
		mustTerminate(t, tres)
		if tres.Unique != tr.Size() {
			t.Fatalf("S=%d tree replay expanded %d unique nodes, want %d", shards, tres.Unique, tr.Size())
		}
		per := make([]int, 0, cfg.Procs+32)
		for i := range res.Met.Nodes {
			per = append(per, res.Met.Nodes[i].Expanded)
		}
		for i := range tres.Met.Nodes {
			per = append(per, tres.Met.Nodes[i].Expanded)
		}
		res.Expanded += tres.Expanded
		res.Unique += tres.Unique
		res.Completions += tres.Completions
		return fingerprint{res: res, perProc: per}
	}

	base := runAt(1)
	if base.res.Shards != 1 {
		t.Fatalf("Shards=1 ran on %d shards", base.res.Shards)
	}
	for _, S := range []int{2, 4, 8} {
		got := runAt(S)
		if got.res.Shards != S {
			t.Errorf("Shards=%d ran on %d shards", S, got.res.Shards)
		}
		if got.res.Optimum != base.res.Optimum {
			t.Errorf("S=%d optimum %g, S=1 %g", S, got.res.Optimum, base.res.Optimum)
		}
		if got.res.Time != base.res.Time {
			t.Errorf("S=%d virtual time %g, S=1 %g", S, got.res.Time, base.res.Time)
		}
		if got.res.Expanded != base.res.Expanded {
			t.Errorf("S=%d expanded %d, S=1 %d", S, got.res.Expanded, base.res.Expanded)
		}
		if got.res.Unique != base.res.Unique {
			t.Errorf("S=%d unique %d, S=1 %d", S, got.res.Unique, base.res.Unique)
		}
		if got.res.Completions != base.res.Completions {
			t.Errorf("S=%d completions %d, S=1 %d", S, got.res.Completions, base.res.Completions)
		}
		for i := range got.perProc {
			if got.perProc[i] != base.perProc[i] {
				t.Errorf("S=%d process %d expanded %d, S=1 %d",
					S, i, got.perProc[i], base.perProc[i])
			}
		}
	}
}

// TestShardChaosOptimumInvariance is the weaker contract under failures:
// chaos draws (who loses/duplicates/reorders which message, crash fallout)
// come from per-shard RNG streams, so trajectories legitimately differ
// across shard counts — but every shard count must still terminate with
// the true optimum. Crash-restart plus duplication plus reordering is the
// same adversary the serial chaos tier runs.
func TestShardChaosOptimumInvariance(t *testing.T) {
	k, ref := shardKnapsack()
	for _, S := range []int{1, 2, 4, 8} {
		res := RunProblemRef(k, ref, Config{
			Procs: 64, Seed: 9, Prune: true, Shards: S,
			Duplicate: 0.05, Reorder: 0.05,
			Crashes: []Crash{
				{Time: 0.5, Node: 3, Restart: 2.0},
				{Time: 1.0, Node: 17},
				{Time: 1.5, Node: 40, Restart: 3.5},
			},
			MaxTime: 1e6,
		})
		if !res.Terminated || !res.OptimumOK {
			t.Errorf("S=%d: terminated=%v optimumOK=%v optimum=%g",
				S, res.Terminated, res.OptimumOK, res.Optimum)
		}
	}
}

// TestShardDeterminism pins exact reproducibility: the same (seed, shards)
// pair must replay the identical run, event for event — the property that
// makes sharded failures debuggable.
func TestShardDeterminism(t *testing.T) {
	k, ref := shardKnapsack()
	cfg := Config{
		Procs: 48, Seed: 5, Prune: true, Shards: 4,
		Duplicate: 0.03, Reorder: 0.03,
		Crashes: []Crash{{Time: 0.8, Node: 7, Restart: 2.2}},
		MaxTime: 1e6,
	}
	a := RunProblemRef(k, ref, cfg)
	b := RunProblemRef(k, ref, cfg)
	if a.Time != b.Time || a.Events != b.Events || a.Expanded != b.Expanded ||
		a.Completions != b.Completions || a.Optimum != b.Optimum {
		t.Errorf("same (seed, shards) diverged:\n a = time %g events %d expanded %d completions %d optimum %g\n b = time %g events %d expanded %d completions %d optimum %g",
			a.Time, a.Events, a.Expanded, a.Completions, a.Optimum,
			b.Time, b.Events, b.Expanded, b.Completions, b.Optimum)
	}
	for i := range a.DetectTimes {
		if a.DetectTimes[i] != b.DetectTimes[i] {
			t.Errorf("process %d detect time %g vs %g", i, a.DetectTimes[i], b.DetectTimes[i])
		}
	}
}

// TestShardClamp pins Config.Shards' documented resolution: clamped to
// [1, Procs], and to one shard for each feature whose state cannot be
// partitioned. Those features run under the same event discipline as every
// other run, so each must still terminate at the optimum.
func TestShardClamp(t *testing.T) {
	k, ref := shardKnapsack()
	base := sim.PaperLatency()
	for _, c := range []struct {
		name string
		cfg  Config
		want int
	}{
		{"above Procs", Config{Procs: 4, Shards: 64}, 4},
		{"default", Config{Procs: 8}, 1},
		{"negative", Config{Procs: 8, Shards: -3}, 1},
		{"UseMembership", Config{Procs: 8, Shards: 4, UseMembership: true}, 1},
		{"Trace", Config{Procs: 8, Shards: 4, Trace: &trace.Log{}}, 1},
		{"LinkLatency", Config{Procs: 8, Shards: 4, LinkLatency: func(from, to, bytes int) float64 {
			return base(bytes) + 0.001*float64((from+to)%3)
		}}, 1},
		{"zero-floor Latency", Config{Procs: 8, Shards: 4, Latency: func(int) float64 { return 0 }}, 1},
	} {
		c.cfg.Seed, c.cfg.Prune = 1, true
		res := RunProblemRef(k, ref, c.cfg)
		mustTerminate(t, res)
		if res.Shards != c.want {
			t.Errorf("%s: ran on %d shards, want %d", c.name, res.Shards, c.want)
		}
	}
}
