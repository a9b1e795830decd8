// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the DESIGN.md ablations. Each bench runs the same code path as
// `cmd/figures`; the Table 1 / Figure 4 benches use a size-scaled workload
// (same 3.47 s granularity, fewer nodes) so an iteration stays in benchmark
// territory — run `go run ./cmd/figures -all` for the paper-size rows.
package gossipbnb

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"gossipbnb/internal/exp"
	"gossipbnb/internal/protocol"
)

// BenchmarkFigure3 regenerates the execution-time breakdown of Figure 3
// (1..8 processors, ~3,500-node problem at 0.01 s/node).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Figure3(1)
		if len(rows) != 8 || !rows[0].OptimumOK {
			b.Fatal("figure 3 regeneration failed")
		}
	}
}

// BenchmarkTable1 regenerates Table 1's measurement at its smallest and
// largest processor counts on a size-scaled Table 1 workload.
func BenchmarkTable1(b *testing.B) {
	w := exp.ScaledLargeWorkload(1, 8001)
	for _, procs := range []int{10, 100} {
		procs := procs
		b.Run(benchName("procs", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row := exp.Measure(w, procs, 1)
				if !row.OptimumOK {
					b.Fatal("wrong optimum")
				}
			}
		})
	}
}

// BenchmarkFigure4 regenerates the Figure 4 sweep shape (execution time and
// communication vs processors) on the scaled workload.
func BenchmarkFigure4(b *testing.B) {
	w := exp.ScaledLargeWorkload(1, 8001)
	for i := 0; i < b.N; i++ {
		prev := 0.0
		for _, procs := range []int{10, 40, 70, 100} {
			row := exp.Measure(w, procs, 1)
			if !row.OptimumOK {
				b.Fatal("wrong optimum")
			}
			if prev != 0 && row.ExecSeconds > prev*1.3 {
				b.Fatalf("execution time not shrinking with processors: %g after %g",
					row.ExecSeconds, prev)
			}
			prev = row.ExecSeconds
		}
	}
}

// BenchmarkFigure5 regenerates the failure-free Gantt run of Figure 5.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := exp.Figure5(1)
		if !g.Result.OptimumOK || g.Log.Len() == 0 {
			b.Fatal("figure 5 regeneration failed")
		}
	}
}

// BenchmarkFigure6 regenerates the crash-and-recover Gantt run of Figure 6
// (two of three processors crash at ~85%).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := exp.Figure6(1)
		if !g.Result.Terminated || !g.Result.OptimumOK {
			b.Fatal("figure 6 survivor failed")
		}
	}
}

// BenchmarkGranularity regenerates the §6.3.1 granularity sweep.
func BenchmarkGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Granularity(1)
		if len(rows) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkFaultTolerance regenerates the crash-scenario matrix verifying
// that losing up to all but one process preserves the solution.
func BenchmarkFaultTolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range exp.FaultTolerance(1) {
			if !r.Terminated || !r.OptimumOK {
				b.Fatalf("scenario failed: %+v", r)
			}
		}
	}
}

// BenchmarkDIBComparison regenerates the §5.5 comparison with DIB.
func BenchmarkDIBComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.DIBComparison(1)
		if len(rows) == 0 {
			b.Fatal("empty comparison")
		}
	}
}

// BenchmarkCentralized regenerates the §3 centralized-baseline comparison.
func BenchmarkCentralized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Centralized(1)
		if len(rows) == 0 {
			b.Fatal("empty comparison")
		}
	}
}

// BenchmarkMembership regenerates the §5.2 membership measurements.
func BenchmarkMembership(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Membership(1)
		if len(rows) == 0 {
			b.Fatal("empty measurement")
		}
	}
}

// BenchmarkAblationReportPolicy sweeps the work-report batch and fanout.
func BenchmarkAblationReportPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(exp.AblationReportPolicy(1)) == 0 {
			b.Fatal("empty ablation")
		}
	}
}

// BenchmarkAblationRecoveryPatience sweeps the failure-suspicion trigger.
func BenchmarkAblationRecoveryPatience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(exp.AblationRecoveryPatience(1)) == 0 {
			b.Fatal("empty ablation")
		}
	}
}

// BenchmarkAblationCompression measures report compression vs load.
func BenchmarkAblationCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(exp.AblationCompression(1)) == 0 {
			b.Fatal("empty ablation")
		}
	}
}

// BenchmarkAblationSelectRule compares local selection disciplines.
func BenchmarkAblationSelectRule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(exp.AblationSelectRule(1)) != 2 {
			b.Fatal("bad ablation")
		}
	}
}

// BenchmarkAblationAdaptiveReports compares fixed and adaptive flushing.
func BenchmarkAblationAdaptiveReports(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(exp.AblationAdaptiveReports(1)) != 6 {
			b.Fatal("bad ablation")
		}
	}
}

// BenchmarkRealKnapsackSim solves a knapsack instance from initial data only
// through the deterministic simulator — the code-driven expander's hot path
// (state replay, bound computation, per-code cost model).
func BenchmarkRealKnapsackSim(b *testing.B) {
	k := RandomKnapsack(rand.New(rand.NewSource(11)), 16)
	seq := SolveProblem(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := RunProblemRef(k, seq, SimConfig{Procs: 4, Seed: 11, Prune: true})
		if !res.OptimumOK {
			b.Fatal("wrong optimum")
		}
	}
}

// BenchmarkRealKnapsackLive solves the same class of instance on a real
// goroutine cluster burning actual CPU per expansion.
func BenchmarkRealKnapsackLive(b *testing.B) {
	k := RandomKnapsack(rand.New(rand.NewSource(12)), 18)
	seq := SolveProblem(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := NewLiveProblemClusterRef(k, seq, LiveConfig{
			Nodes: 4, Seed: 12, Prune: true, Timeout: 60 * time.Second,
		})
		if res := cl.Run(); !res.OptimumOK {
			b.Fatal("wrong optimum")
		}
	}
}

// BenchmarkSelfHealing measures the failure-free price of the self-healing
// machinery on a real TCP cluster. Every frame already pays the CRC32-C
// trailer unconditionally; detector=off is that baseline, detector=on adds
// heartbeat tracking and idle-link pings at thresholds no healthy run
// crosses. The two must stay within gate noise of each other — the paper's
// argument needs failure detection to cost nothing when nothing fails —
// and the run itself asserts that a clean cluster produces zero
// suspicions, zero exclusions, and zero corrupt frames.
func BenchmarkSelfHealing(b *testing.B) {
	k := RandomKnapsack(rand.New(rand.NewSource(12)), 18)
	seq := SolveProblem(k)
	run := func(b *testing.B, suspect time.Duration) {
		for i := 0; i < b.N; i++ {
			nw, err := NewTCPNetwork(4)
			if err != nil {
				b.Fatal(err)
			}
			cl := NewLiveProblemClusterRef(k, seq, LiveConfig{
				Nodes: 4, Seed: 12, Prune: true, Network: nw,
				SuspectAfter: suspect,
				Timeout:      60 * time.Second,
			})
			res := cl.Run()
			nw.Close()
			if !res.Terminated || !res.OptimumOK {
				b.Fatal("wrong optimum")
			}
			if res.Net.Corrupt != 0 {
				b.Fatalf("clean TCP run rejected %d frames", res.Net.Corrupt)
			}
			if res.Health.Suspicions != 0 || res.Health.Exclusions != 0 {
				b.Fatalf("failure-free run tripped the detector: %+v", res.Health)
			}
		}
	}
	b.Run("detector=off", func(b *testing.B) { run(b, 0) })
	b.Run("detector=on", func(b *testing.B) { run(b, 500*time.Millisecond) })
}

// stressRun is one scale-tier iteration: a deep (30-item) knapsack solved
// from initial data on procs simulated processes. Most processes starve,
// probe and gossip tables until the detector's broadcast ends the run, so it
// leans on report flushes, table pushes and merges among starving processes,
// wire-size queries, peer-view fan-out — and, sharded, on the mesh barrier.
// Termination itself is O(procs) messages and no longer shows. Whether
// process 0 grants work in the first probe round is a coin flip per seed and
// per randomness stream (ROADMAP item 1), and the two outcomes differ several
// times over in wall-clock: compare these tiers only within one commit.
func stressRun(b *testing.B, k *Knapsack, seq SolveResult, procs, shards int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res := RunProblemRef(k, seq, SimConfig{Procs: procs, Seed: 7, Prune: true, Shards: shards})
		if !res.Terminated || !res.OptimumOK {
			b.Fatal("stress run failed to terminate at the optimum")
		}
	}
}

// BenchmarkStress1000 is the 1000-process scale tier, measured on one shard
// (the default) and on one shard per CPU. Sub-benchmark names avoid runtime.NumCPU so baselines
// compare across machines (the -N GOMAXPROCS suffix is stripped by
// cmd/benchsnap).
func BenchmarkStress1000(b *testing.B) {
	k := RandomKnapsack(rand.New(rand.NewSource(7)), 30)
	seq := SolveProblem(k)
	b.Run("shards=1", func(b *testing.B) { stressRun(b, k, seq, 1000, 1) })
	b.Run("shards=cpu", func(b *testing.B) { stressRun(b, k, seq, 1000, runtime.GOMAXPROCS(0)) })
}

// BenchmarkStress10000 is the 10,000-process tier the sharded substrate
// unlocks: per-process randomness streams, the shared peer ring and the
// canonical batch order keep one full solve to seconds. (Before termination
// became epidemic the tier was dominated by 10⁸ root-report deliveries.)
func BenchmarkStress10000(b *testing.B) {
	k := RandomKnapsack(rand.New(rand.NewSource(7)), 30)
	seq := SolveProblem(k)
	b.Run("shards=1", func(b *testing.B) { stressRun(b, k, seq, 10000, 1) })
	b.Run("shards=cpu", func(b *testing.B) { stressRun(b, k, seq, 10000, runtime.GOMAXPROCS(0)) })
}

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

// BenchmarkMultiInstance multiplexes four concurrent problem instances over
// one simulated 8-process cluster — the instance-scoped protocol's hot path
// (tagged wire codec, mux routing, per-instance termination, reaping cores
// back to the pools) — and checks every instance against its own sequential
// optimum.
func BenchmarkMultiInstance(b *testing.B) {
	insts := make([]SimInstance, 4)
	for i := range insts {
		r := rand.New(rand.NewSource(int64(21 + i*1_000_003)))
		insts[i] = SimInstance{
			Problem:   RandomKnapsack(r, 13),
			Seed:      int64(22 + i),
			StartTime: float64(i) * 5,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := RunInstances(SimConfig{Procs: 8, Seed: 21, Prune: true, Instances: insts})
		if !res.Terminated {
			b.Fatal("multi-instance run did not terminate")
		}
		for _, ir := range res.Instances {
			if !ir.OptimumOK {
				b.Fatalf("instance %d missed its sequential optimum", ir.ID)
			}
		}
	}
}

// BenchmarkRealQAPSim solves a QAP instance from initial data through the
// simulator under depth-first selection.
func BenchmarkRealQAPSim(b *testing.B) {
	q := RandomQAP(rand.New(rand.NewSource(13)), 6)
	seq := SolveProblem(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := RunProblemRef(q, seq, SimConfig{Procs: 4, Seed: 13, Prune: true, Select: SelectDepthFirst})
		if !res.OptimumOK {
			b.Fatal("wrong optimum")
		}
	}
}

// BenchmarkReportBytes measures the wire cost of completion propagation on
// the scaled Table 1 workload in both gossip modes, reporting it as a custom
// wire-B/op metric that cmd/benchsnap snapshots and gates (-gate-bytes).
// The run is fully seeded, so the metric is exact, machine-independent, and
// the diff-mode byte reduction stays a recorded artifact rather than a
// one-off measurement.
func BenchmarkReportBytes(b *testing.B) {
	w := exp.ScaledLargeWorkload(1, 8001)
	for _, mode := range []struct {
		name string
		diff bool
	}{{"mode=frontier", false}, {"mode=diff", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var wire int64
			for i := 0; i < b.N; i++ {
				res := Run(w.Tree, SimConfig{
					Procs: 100, Seed: 1, RecoveryQuiet: 120, DiffGossip: mode.diff,
				})
				if !res.Terminated || !res.OptimumOK {
					b.Fatal("benchmark run failed to terminate at the optimum")
				}
				wire += res.Net.KindBytes[protocol.KindReport] +
					res.Net.KindBytes[protocol.KindTable] +
					res.Net.KindBytes[protocol.KindDigestReport] +
					res.Net.KindBytes[protocol.KindSubtreeRequest] +
					res.Net.KindBytes[protocol.KindSubtreeReply]
			}
			b.ReportMetric(float64(wire)/float64(b.N), "wire-B/op")
		})
	}
}

func benchName(prefix string, n int) string {
	return fmt.Sprintf("%s=%d", prefix, n)
}
