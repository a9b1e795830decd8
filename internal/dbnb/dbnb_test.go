package dbnb

import (
	"math"
	"math/rand"
	"testing"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/btree"
	"gossipbnb/internal/code"
	"gossipbnb/internal/ctree"
	"gossipbnb/internal/metrics"
	"gossipbnb/internal/trace"
)

// smallTree builds a quick workload: ~300 nodes, 50 ms mean cost.
func smallTree(seed int64) *btree.Tree {
	r := rand.New(rand.NewSource(seed))
	return btree.Random(r, btree.RandomConfig{
		Size:         301,
		Cost:         btree.CostModel{Mean: 0.05, Sigma: 0.4},
		BoundSpread:  1,
		FeasibleProb: 0.1,
	})
}

func mustTerminate(t *testing.T, res Result) {
	t.Helper()
	if !res.Terminated {
		t.Fatalf("run did not terminate: %+v", res)
	}
	if !res.OptimumOK {
		t.Fatalf("wrong optimum: got %g", res.Optimum)
	}
}

func TestSingleProcess(t *testing.T) {
	tr := smallTree(1)
	res := Run(tr, Config{Procs: 1, Seed: 1})
	mustTerminate(t, res)
	if res.Expanded != tr.Size() {
		t.Errorf("Expanded = %d, want %d (no pruning)", res.Expanded, tr.Size())
	}
	if res.Redundant != 0 {
		t.Errorf("Redundant = %d on one process", res.Redundant)
	}
	st := tr.Stats()
	if math.Abs(res.Time-st.TotalCost) > 1 {
		t.Errorf("Time = %g, want ≈ TotalCost %g", res.Time, st.TotalCost)
	}
}

func TestMultiProcessSpeedup(t *testing.T) {
	tr := smallTree(2)
	t1 := Run(tr, Config{Procs: 1, Seed: 3}).Time
	res := Run(tr, Config{Procs: 4, Seed: 3})
	mustTerminate(t, res)
	if res.Time >= t1 {
		t.Errorf("4 processes (%.2fs) not faster than 1 (%.2fs)", res.Time, t1)
	}
	if res.Time < t1/4 {
		t.Errorf("superlinear speedup is impossible without pruning: %.2fs vs %.2fs", res.Time, t1)
	}
}

func TestEveryNodeExpandedExactlyOnceWhenHealthy(t *testing.T) {
	tr := smallTree(3)
	res := Run(tr, Config{Procs: 4, Seed: 5})
	mustTerminate(t, res)
	if res.Unique != tr.Size() {
		t.Errorf("Unique = %d, want %d", res.Unique, tr.Size())
	}
	// Some end-game redundancy is expected, but it must stay small on a
	// healthy run.
	if res.Redundant > tr.Size()/5 {
		t.Errorf("Redundant = %d (> 20%% of %d) on a failure-free run", res.Redundant, tr.Size())
	}
}

func TestDeterministic(t *testing.T) {
	tr := smallTree(4)
	cfg := Config{Procs: 5, Seed: 77, Loss: 0.05}
	a := Run(tr, cfg)
	b := Run(tr, cfg)
	if a.Time != b.Time || a.Expanded != b.Expanded || a.Net != b.Net {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestSeedMatters(t *testing.T) {
	tr := smallTree(5)
	a := Run(tr, Config{Procs: 5, Seed: 1})
	b := Run(tr, Config{Procs: 5, Seed: 2})
	if a.Time == b.Time && a.Net.Sent == b.Net.Sent {
		t.Error("different seeds produced byte-identical runs (suspicious)")
	}
}

func TestPruningReducesWork(t *testing.T) {
	// A tree with generous bound spread prunes heavily.
	r := rand.New(rand.NewSource(6))
	tr := btree.Random(r, btree.RandomConfig{
		Size:         2001,
		Cost:         btree.CostModel{Mean: 0.02},
		BoundSpread:  5,
		FeasibleProb: 0.3,
	})
	full := Run(tr, Config{Procs: 4, Seed: 1})
	pruned := Run(tr, Config{Procs: 4, Seed: 1, Prune: true})
	mustTerminate(t, full)
	mustTerminate(t, pruned)
	if pruned.Expanded >= full.Expanded {
		t.Errorf("pruning did not reduce expansions: %d >= %d", pruned.Expanded, full.Expanded)
	}
}

func TestCrashRecoverySingleSurvivor(t *testing.T) {
	// §5.5 / Figure 6: all processes but one crash; the survivor recovers
	// the lost work and solves the problem correctly.
	tr := btree.Tiny(2)
	res := Run(tr, Config{
		Procs: 3, Seed: 9,
		RecoveryQuiet: 3,
		Crashes:       []Crash{{Time: 2.0, Node: 1}, {Time: 2.1, Node: 2}},
	})
	mustTerminate(t, res)
	if !math.IsNaN(res.DetectTimes[1]) || !math.IsNaN(res.DetectTimes[2]) {
		t.Error("crashed processes should have NaN detect times")
	}
	if math.IsInf(res.DetectTimes[0], 1) {
		t.Error("survivor never detected termination")
	}
	survivors := 0
	for i := range res.Met.Nodes {
		if res.Met.Nodes[i].Recoveries > 0 {
			survivors++
		}
	}
	if survivors == 0 {
		t.Error("no process used complement-based recovery")
	}
}

// TestProblemRunCrashRecovery crashes processes mid-run of a code-driven
// problem: the survivors' complement recovery must re-derive the lost
// subproblems cold from the initial data (no recorded tree exists to look
// them up in) and still find the sequential optimum.
func TestProblemRunCrashRecovery(t *testing.T) {
	k := bnb.RandomKnapsack(rand.New(rand.NewSource(21)), 12)
	ref := bnb.SolveProblem(k)
	res := RunProblemRef(k, ref, Config{
		Procs: 4, Seed: 21, Prune: true,
		RecoveryQuiet: 3,
		Crashes:       []Crash{{Time: 0.05, Node: 0}, {Time: 0.1, Node: 2}},
	})
	mustTerminate(t, res)
	if res.Time < 0.1 {
		t.Fatalf("run ended at %gs, before the scheduled crashes bit", res.Time)
	}
	if !math.IsNaN(res.DetectTimes[0]) || !math.IsNaN(res.DetectTimes[2]) {
		t.Error("crashed processes should have NaN detect times")
	}
	if res.Optimum != ref.Value {
		t.Errorf("optimum after crashes = %g, sequential = %g", res.Optimum, ref.Value)
	}
}

func TestCrashEarlyBeforeAnyReports(t *testing.T) {
	// The process holding the root crashes almost immediately: everything
	// must be recovered from empty tables.
	tr := btree.Tiny(3)
	res := Run(tr, Config{
		Procs: 4, Seed: 11,
		RecoveryQuiet: 3,
		Crashes:       []Crash{{Time: 0.01, Node: 0}},
	})
	mustTerminate(t, res)
}

func TestMassCrashWithPruning(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tr := btree.Random(r, btree.RandomConfig{
		Size:         801,
		Cost:         btree.CostModel{Mean: 0.05},
		BoundSpread:  3,
		FeasibleProb: 0.2,
	})
	res := Run(tr, Config{
		Procs: 6, Seed: 13, Prune: true,
		RecoveryQuiet: 3,
		Crashes: []Crash{
			{Time: 3, Node: 1}, {Time: 4, Node: 2}, {Time: 5, Node: 3},
			{Time: 6, Node: 4}, {Time: 7, Node: 5},
		},
	})
	mustTerminate(t, res)
	if res.Redundant == 0 {
		t.Log("note: no redundant work despite five crashes (possible but unusual)")
	}
}

func TestMessageLoss(t *testing.T) {
	tr := smallTree(8)
	res := Run(tr, Config{Procs: 4, Seed: 17, Loss: 0.15, RecoveryQuiet: 5})
	mustTerminate(t, res)
	if res.Net.Lost == 0 {
		t.Error("loss model inactive")
	}
}

func TestTemporaryPartition(t *testing.T) {
	// §5.3.2: the mechanism also works across temporary network partitions.
	tr := smallTree(9)
	res := Run(tr, Config{
		Procs: 6, Seed: 19, RecoveryQuiet: 4,
		Nemesis: faults(t, "partition:2-8:0,1,2"),
	})
	mustTerminate(t, res)
	if res.Net.Cut == 0 {
		t.Error("partition cut no messages (check scenario)")
	}
}

// TestDisableRecoveryHangsAfterCrash keeps recovery off the way a run can:
// a RecoveryQuiet whose jittered window (at least 0.75×) outlasts MaxTime, so
// no starving process ever presumes work was lost.
func TestDisableRecoveryHangsAfterCrash(t *testing.T) {
	tr := btree.Tiny(4)
	res := Run(tr, Config{
		Procs: 3, Seed: 21,
		RecoveryQuiet: 1000,
		Crashes:       []Crash{{Time: 1.0, Node: 0}},
		MaxTime:       120,
	})
	if res.Terminated {
		// Only legitimate if node 0 held no unreported completed work and
		// no active problems when it crashed — overwhelmingly unlikely at
		// t=1 with this seed; treat as a test failure to catch regressions.
		t.Error("run terminated with recovery disabled after the root holder crashed")
	}
}

func TestWorkReportBatching(t *testing.T) {
	tr := smallTree(10)
	res := Run(tr, Config{Procs: 4, Seed: 23, ReportBatch: 4})
	mustTerminate(t, res)
	reports := 0
	for i := range res.Met.Nodes {
		reports += res.Met.Nodes[i].ReportsSent
	}
	if reports == 0 {
		t.Error("no work reports sent")
	}
}

func TestSmallerBatchMoreReports(t *testing.T) {
	tr := smallTree(11)
	count := func(batch int) int {
		res := Run(tr, Config{Procs: 4, Seed: 25, ReportBatch: batch})
		mustTerminate(t, res)
		n := 0
		for i := range res.Met.Nodes {
			n += res.Met.Nodes[i].ReportsSent
		}
		return n
	}
	if c4, c32 := count(4), count(32); c4 <= c32 {
		t.Errorf("batch 4 sent %d reports, batch 32 sent %d; want more with smaller batch", c4, c32)
	}
}

func TestMetricsAccounting(t *testing.T) {
	tr := smallTree(12)
	res := Run(tr, Config{Procs: 4, Seed: 27})
	mustTerminate(t, res)
	agg := res.Met.AggregateBreakdown()
	if agg.Get(metrics.BB) <= 0 {
		t.Error("no BB time accrued")
	}
	if agg.Get(metrics.Comm) <= 0 {
		t.Error("no communication time accrued")
	}
	if agg.Get(metrics.Contract) <= 0 {
		t.Error("no contraction time accrued")
	}
	// Per-process accrued time cannot exceed its detection time.
	for i := range res.Met.Nodes {
		total := res.Met.Nodes[i].Total()
		if det := res.DetectTimes[i]; !math.IsNaN(det) && !math.IsInf(det, 1) {
			if total > det*1.05+1 {
				t.Errorf("process %d accrued %.2fs but detected at %.2fs", i, total, det)
			}
		}
	}
	if res.Met.TotalStorage() <= 0 {
		t.Error("no storage observed")
	}
	// The union's peak is tracked while the run is in progress: observed only
	// after it, the union is the one root code it contracted to and all but
	// two stored bytes read as redundant.
	root := ctree.New()
	root.Insert(code.Root())
	if res.Met.UniquePeak <= root.EncodedSize() {
		t.Errorf("union peak %d B is no more than a completed table's %d B", res.Met.UniquePeak, root.EncodedSize())
	}
	if red, tot := res.Met.RedundantStorage(), res.Met.TotalStorage(); red <= 0 || red >= tot {
		t.Errorf("redundant storage %d B of %d B total, want strictly between", red, tot)
	}
	if res.Net.Bytes <= 0 {
		t.Error("no bytes sent")
	}
}

func TestTraceRecordsAllStates(t *testing.T) {
	tr := btree.Tiny(5)
	var lg trace.Log
	res := Run(tr, Config{
		Procs: 3, Seed: 29, Trace: &lg, RecoveryQuiet: 3,
		Crashes: []Crash{{Time: 2, Node: 2}},
	})
	mustTerminate(t, res)
	sum := lg.Summary()
	for _, st := range []trace.State{trace.Compute, trace.Comm, trace.Idle, trace.Dead} {
		if sum[st] <= 0 {
			t.Errorf("trace has no %v spans", st)
		}
	}
}

func TestGranularityScaling(t *testing.T) {
	// §6.3.1: coarser granularity improves load balance (higher BB share).
	tr := smallTree(13)
	share := func(factor float64) float64 {
		res := Run(tr, Config{Procs: 6, Seed: 31, CostFactor: factor})
		mustTerminate(t, res)
		return res.Met.AggregateBreakdown().Percent(metrics.BB)
	}
	fine, coarse := share(0.2), share(5)
	if coarse <= fine {
		t.Errorf("BB share did not improve with coarser granularity: fine=%.1f%% coarse=%.1f%%", fine, coarse)
	}
}

func TestIncumbentPropagates(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	tr := btree.Random(r, btree.RandomConfig{
		Size:         1501,
		Cost:         btree.CostModel{Mean: 0.02},
		BoundSpread:  4,
		FeasibleProb: 0.25,
	})
	res := Run(tr, Config{Procs: 5, Seed: 33, Prune: true})
	mustTerminate(t, res)
	// With pruning, every terminated process must know the true optimum —
	// the incumbent piggybacking requirement of §5.
	want := tr.Stats().Optimum
	if res.Optimum != want {
		t.Errorf("Optimum = %g, want %g", res.Optimum, want)
	}
}

func TestMembershipMode(t *testing.T) {
	tr := smallTree(15)
	res := Run(tr, Config{Procs: 5, Seed: 35, UseMembership: true, RecoveryQuiet: 6})
	mustTerminate(t, res)
}

func TestMembershipModeWithCrashes(t *testing.T) {
	tr := smallTree(16)
	res := Run(tr, Config{
		Procs: 5, Seed: 37, UseMembership: true, RecoveryQuiet: 5,
		Crashes: []Crash{{Time: 3, Node: 2}, {Time: 4, Node: 4}},
	})
	mustTerminate(t, res)
}

func TestLoneProcessWithMembership(t *testing.T) {
	tr := btree.Tiny(6)
	res := Run(tr, Config{Procs: 1, Seed: 39, UseMembership: true})
	mustTerminate(t, res)
}

func TestDetectTimesOrdered(t *testing.T) {
	tr := smallTree(17)
	res := Run(tr, Config{Procs: 4, Seed: 41})
	mustTerminate(t, res)
	if res.FirstDetect > res.Time {
		t.Errorf("FirstDetect %.2f after last detection %.2f", res.FirstDetect, res.Time)
	}
	for i, d := range res.DetectTimes {
		if d < res.FirstDetect || d > res.Time {
			t.Errorf("process %d detect time %.2f outside [%.2f, %.2f]", i, d, res.FirstDetect, res.Time)
		}
	}
}

func TestConfigValidationDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Procs != 1 || cfg.retryDelay <= 0 || cfg.RecoveryQuiet <= 0 {
		t.Errorf("defaults incomplete: %+v", cfg)
	}
}

func TestCrashOutOfRangeIgnored(t *testing.T) {
	tr := btree.Tiny(7)
	res := Run(tr, Config{Procs: 2, Seed: 43, Crashes: []Crash{{Time: 1, Node: 99}, {Time: 1, Node: -1}}})
	mustTerminate(t, res)
}

func BenchmarkRun8Procs(b *testing.B) {
	tr := smallTree(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(tr, Config{Procs: 8, Seed: int64(i)})
		if !res.Terminated {
			b.Fatal("did not terminate")
		}
	}
}
