package dbnb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gossipbnb/internal/btree"
	"gossipbnb/internal/nemesis"
)

// faults builds a schedule from specs in the nemesis grammar; windows are
// virtual seconds.
func faults(t testing.TB, specs ...string) *nemesis.Schedule {
	t.Helper()
	fs, err := nemesis.ParseAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	return nemesis.New(fs...)
}

// TestPropRandomCrashSchedules is the paper's headline guarantee as a
// property: for ANY schedule that leaves at least one process alive, the run
// terminates with the exact optimum.
func TestPropRandomCrashSchedules(t *testing.T) {
	tr := btree.Tiny(11)
	base := Run(tr, Config{Procs: 4, Seed: 1, RecoveryQuiet: 3})
	if !base.Terminated {
		t.Fatal("baseline did not terminate")
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		procs := 2 + r.Intn(4)
		kills := r.Intn(procs) // 0 .. procs-1: at least one survivor
		perm := r.Perm(procs)
		cfg := Config{Procs: procs, Seed: seed, RecoveryQuiet: 3}
		for i := 0; i < kills; i++ {
			cfg.Crashes = append(cfg.Crashes, Crash{
				Time: r.Float64() * 2 * base.Time,
				Node: perm[i],
			})
		}
		res := Run(tr, cfg)
		return res.Terminated && res.OptimumOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropLossySchedules: message loss alone must never break termination
// or the optimum.
func TestPropLossySchedules(t *testing.T) {
	tr := btree.Tiny(12)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{
			Procs:         2 + r.Intn(5),
			Seed:          seed,
			Loss:          r.Float64() * 0.3,
			RecoveryQuiet: 4,
		}
		res := Run(tr, cfg)
		return res.Terminated && res.OptimumOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestChaosEverythingAtOnce combines crashes, loss, a partition, pruning,
// depth-first selection, membership, and adaptive reports in one run.
func TestChaosEverythingAtOnce(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	tr := btree.Random(r, btree.RandomConfig{
		Size:         1201,
		Cost:         btree.CostModel{Mean: 0.05, Sigma: 0.5},
		BoundSpread:  2,
		FeasibleProb: 0.1,
	})
	res := Run(tr, Config{
		Procs:           8,
		Seed:            13,
		Prune:           true,
		Select:          DepthFirst,
		Loss:            0.08,
		UseMembership:   true,
		AdaptiveReports: true,
		RecoveryQuiet:   8,
		Crashes: []Crash{
			{Time: 4, Node: 5}, {Time: 6, Node: 6}, {Time: 9, Node: 7},
		},
		Nemesis: faults(t, "partition:3-10:0,1,2"),
	})
	if !res.Terminated {
		t.Fatalf("chaos run did not terminate: %+v", res)
	}
	if !res.OptimumOK {
		t.Fatalf("chaos run lost the optimum: got %g", res.Optimum)
	}
}

// TestPartitionBothSidesProgress: during a partition, both sides keep
// working (recovery re-creates the other side's regions); after healing the
// system converges without double-counting completions in the tables.
func TestPartitionBothSidesProgress(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	tr := btree.Random(r, btree.RandomConfig{
		Size:         801,
		Cost:         btree.CostModel{Mean: 0.05},
		BoundSpread:  1,
		FeasibleProb: 0.1,
	})
	base := Run(tr, Config{Procs: 6, Seed: 14, RecoveryQuiet: 4})
	res := Run(tr, Config{
		Procs: 6, Seed: 14, RecoveryQuiet: 4,
		Nemesis: faults(t, fmt.Sprintf("partition:1-%g:0,1,2", base.Time*2)),
	})
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("partitioned run failed: %+v", res)
	}
	// Both sides redo each other's work, so redundancy must appear.
	if res.Redundant == 0 {
		t.Error("long partition caused no redundant work (suspicious)")
	}
}

// TestDepthFirstDeterministic: determinism must hold under the alternate
// selection rule too.
func TestDepthFirstDeterministic(t *testing.T) {
	tr := btree.Tiny(15)
	cfg := Config{Procs: 5, Seed: 99, Select: DepthFirst, Loss: 0.1, RecoveryQuiet: 4}
	a, b := Run(tr, cfg), Run(tr, cfg)
	if a.Time != b.Time || a.Expanded != b.Expanded || a.Net != b.Net {
		t.Errorf("nondeterministic under depth-first: %+v vs %+v", a, b)
	}
}

// TestAdaptiveReportsCorrectness: the adaptive flush must not change
// answers, only traffic.
func TestAdaptiveReportsCorrectness(t *testing.T) {
	tr := btree.Tiny(16)
	fixed := Run(tr, Config{Procs: 4, Seed: 5, RecoveryQuiet: 4, CostFactor: 20, ReportTimeout: 2})
	adaptive := Run(tr, Config{Procs: 4, Seed: 5, RecoveryQuiet: 4, CostFactor: 20, ReportTimeout: 2, AdaptiveReports: true})
	if !fixed.Terminated || !adaptive.Terminated {
		t.Fatal("runs did not terminate")
	}
	if fixed.Optimum != adaptive.Optimum {
		t.Errorf("adaptive reporting changed the optimum: %g vs %g",
			adaptive.Optimum, fixed.Optimum)
	}
}

// --- crash-restart (rejoin) ----------------------------------------------------

// TestRestartRejoinDeterministic is the acceptance scenario for
// crash-restart: a run with {Time: t1, Node: k, Restart: t2} terminates with
// the correct optimum, the restarted process itself detects termination, and
// the whole result is identical across repeated runs with the same seed.
func TestRestartRejoinDeterministic(t *testing.T) {
	tr := btree.Tiny(11)
	cfg := Config{Procs: 4, Seed: 1, RecoveryQuiet: 3,
		Crashes: []Crash{{Time: 1, Node: 2, Restart: 4}}}
	a := Run(tr, cfg)
	if !a.Terminated || !a.OptimumOK {
		t.Fatalf("restart run failed: %+v", a)
	}
	if math.IsNaN(a.DetectTimes[2]) || math.IsInf(a.DetectTimes[2], 1) {
		t.Fatalf("restarted process did not detect termination: %v", a.DetectTimes)
	}
	b := Run(tr, cfg)
	if a.Time != b.Time || a.Expanded != b.Expanded || a.Completions != b.Completions || a.Net != b.Net {
		t.Errorf("nondeterministic under restart:\n%+v\nvs\n%+v", a, b)
	}
}

// TestRestartRebuildsFromGossip: a process that crashes late — after
// expanding a large share of the tree — and restarts re-enters with an empty
// table and rebuilds from peers' reports; the run must converge without
// state from its previous life.
func TestRestartRebuildsFromGossip(t *testing.T) {
	tr := btree.Tiny(12)
	base := Run(tr, Config{Procs: 3, Seed: 7, RecoveryQuiet: 3})
	if !base.Terminated {
		t.Fatal("baseline did not terminate")
	}
	res := Run(tr, Config{Procs: 3, Seed: 7, RecoveryQuiet: 3,
		Crashes: []Crash{{Time: 0.5 * base.Time, Node: 0, Restart: 0.6 * base.Time}}})
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("late-restart run failed: %+v", res)
	}
}

// TestRestartInsideBusyPeriod: a process that crashes mid-expansion and
// restarts a microsecond later is reborn before the dead incarnation's busy
// period ends. That period's end event still fires, and must be discarded:
// handed to the fresh core, it would apply an expansion the new incarnation
// never popped and end whatever busy period the new one has begun. The run
// follows the trajectory pinned before node events carried their
// incarnation in the kernel argument, re-pinned when a starving probe began
// to carry the table push.
func TestRestartInsideBusyPeriod(t *testing.T) {
	k, ref := lazyKnapsack()
	cfg := Config{Procs: 4, Seed: 2, Prune: true, Shards: 2, RecoveryQuiet: 3,
		Crashes: []Crash{{Time: 0.5, Node: 0, Restart: 0.500001}}}
	h := newHarness(cfg, []*spec{{w: problemWorkload(k, ref)}}, false)
	n := h.nodes[0]
	h.shardOf(0).k.At(0.5, func() {
		if !n.crashed || !n.busy || n.incarn != 0 {
			t.Errorf("at the crash: crashed %v, busy %v, incarnation %d; want a busy first incarnation",
				n.crashed, n.busy, n.incarn)
		}
	})
	mr := h.run()
	if ir := mr.Instances[0]; !ir.Terminated || !ir.OptimumOK {
		t.Fatalf("terminated %v, optimum ok %v", ir.Terminated, ir.OptimumOK)
	}
	if n.incarn != 1 {
		t.Fatalf("process 0 is in incarnation %d, want 1", n.incarn)
	}
	checkFingerprint(t, "restart inside a busy period", multiFingerprint(mr)[0], fpRestartInsideBusy)
}

const fpRestartInsideBusy = "t=7.324515234374998 first=7.322700234374999 exp=378 uniq=378 comp=332 sent=147 bytes=12227 kinds=[0 91 0 28 1 27] per=[50 328 0 0]"

// TestRestartAfterSystemTerminated: a process that comes back after everyone
// else finished must still learn the outcome (terminated peers answer its
// work requests with the root report) and terminate instead of recovering
// the whole tree alone forever.
func TestRestartAfterSystemTerminated(t *testing.T) {
	tr := btree.Tiny(13)
	base := Run(tr, Config{Procs: 3, Seed: 9, RecoveryQuiet: 3})
	if !base.Terminated {
		t.Fatal("baseline did not terminate")
	}
	res := Run(tr, Config{Procs: 3, Seed: 9, RecoveryQuiet: 3,
		Crashes: []Crash{{Time: 0.3 * base.Time, Node: 1, Restart: base.Time * 3}}})
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("post-termination rejoin failed: %+v", res)
	}
	if math.IsInf(res.DetectTimes[1], 1) {
		t.Fatal("rejoined process never detected termination")
	}
}

// TestCrashAfterTerminationKeepsDetection: a Crash that fires long after a
// process detected termination still takes its network endpoint down, but it
// must not turn the process's detection into "crashed" — the run terminated,
// and the schedule's tail cannot un-terminate it. Every process crashing a
// thousand seconds after the fault-free finish leaves the result untouched,
// on both kernels and for instance contexts alike.
func TestCrashAfterTerminationKeepsDetection(t *testing.T) {
	tr := smallTree(4)
	for _, S := range []int{0, 4} {
		cfg := Config{Procs: 4, Seed: 3, Shards: S}
		base := Run(tr, cfg)
		mustTerminate(t, base)
		for i := 0; i < cfg.Procs; i++ {
			cfg.Crashes = append(cfg.Crashes, Crash{Time: base.Time + 1000, Node: i})
		}
		late := Run(tr, cfg)
		if !late.Terminated || !late.OptimumOK || late.Time != base.Time {
			t.Errorf("Shards=%d: late crashes changed the outcome: terminated=%v optimumOK=%v time %g (fault-free %g)",
				S, late.Terminated, late.OptimumOK, late.Time, base.Time)
		}
		for i, d := range late.DetectTimes {
			if d != base.DetectTimes[i] {
				t.Errorf("Shards=%d: process %d detection %g, fault-free %g", S, i, d, base.DetectTimes[i])
			}
		}
	}

	mcfg := Config{Procs: 4, Seed: 3, Prune: true, Select: DepthFirst, Shards: 4, Instances: fourInstances()[:2]}
	mbase := RunInstances(mcfg)
	if !mbase.Terminated {
		t.Fatal("multi-instance baseline did not terminate")
	}
	for i := 0; i < mcfg.Procs; i++ {
		// Whole-process and instance-scoped, both after everything finished.
		mcfg.Crashes = append(mcfg.Crashes,
			Crash{Time: mbase.Time + 1000, Node: i},
			Crash{Time: mbase.Time + 2000, Node: i, Instance: 2})
	}
	mlate := RunInstances(mcfg)
	for i, ir := range mlate.Instances {
		if !ir.Terminated || !ir.OptimumOK || ir.Time != mbase.Instances[i].Time {
			t.Errorf("instance %d: late crashes changed the outcome: %+v", ir.ID, ir)
		}
		for p, d := range ir.DetectTimes {
			if d != mbase.Instances[i].DetectTimes[p] {
				t.Errorf("instance %d process %d detection %g, fault-free %g", ir.ID, p, d, mbase.Instances[i].DetectTimes[p])
			}
		}
	}
}

// TestRestartWithMembership exercises the §5.2 rejoin path: the restarted
// process announces itself to the gossip servers as a brand-new member,
// rebuilds its view, and finishes the computation with the group.
func TestRestartWithMembership(t *testing.T) {
	tr := btree.Tiny(14)
	res := Run(tr, Config{Procs: 5, Seed: 3, RecoveryQuiet: 5, UseMembership: true,
		Crashes: []Crash{{Time: 2, Node: 3, Restart: 8}, {Time: 3, Node: 4}}})
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("membership rejoin run failed: %+v", res)
	}
	if math.IsNaN(res.DetectTimes[3]) {
		t.Fatal("restarted member counted as crashed")
	}
}

// --- adversarial delivery ------------------------------------------------------

// TestChaosSoakDupReorder is the acceptance soak: with Duplicate 0.2 and
// reordering enabled, 50 seeds must all terminate with the correct optimum.
func TestChaosSoakDupReorder(t *testing.T) {
	tr := btree.Tiny(21)
	for seed := int64(0); seed < 50; seed++ {
		res := Run(tr, Config{
			Procs: 3, Seed: seed, RecoveryQuiet: 3,
			Duplicate: 0.2, Reorder: 0.3,
		})
		if !res.Terminated || !res.OptimumOK {
			t.Fatalf("seed %d: %+v", seed, res)
		}
		if res.Net.Duplicated == 0 || res.Net.Reordered == 0 {
			t.Fatalf("seed %d: chaos knobs had no effect: %+v", seed, res.Net)
		}
	}
}

// TestChaosSoakCrossProduct sweeps seeds across the full fault surface —
// restart, duplication, reordering, stale replay, loss, partition, and all
// of them at once — asserting termination, the exact optimum, and a bounded
// redundant-work counter for every cell.
func TestChaosSoakCrossProduct(t *testing.T) {
	tr := btree.Tiny(22)
	base := Run(tr, Config{Procs: 4, Seed: 0, RecoveryQuiet: 3})
	if !base.Terminated {
		t.Fatal("baseline did not terminate")
	}
	half := base.Time / 2
	cut := fmt.Sprintf("partition:%g-%g:0,1", half/2, half)
	scenarios := []struct {
		name string
		mut  func(*Config)
	}{
		{"restart", func(c *Config) {
			c.Crashes = []Crash{{Time: half / 2, Node: 1, Restart: half}}
		}},
		{"dup", func(c *Config) { c.Duplicate = 0.25 }},
		{"reorder", func(c *Config) { c.Reorder = 0.4 }},
		{"replay", func(c *Config) { c.Nemesis = faults(t, "replay:0.1:2") }},
		{"loss", func(c *Config) { c.Loss = 0.15 }},
		{"partition", func(c *Config) { c.Nemesis = faults(t, cut) }},
		{"everything", func(c *Config) {
			c.Crashes = []Crash{{Time: half / 2, Node: 1, Restart: half}, {Time: half, Node: 3}}
			c.Duplicate = 0.2
			c.Reorder = 0.3
			c.Loss = 0.1
			c.Nemesis = faults(t, "replay:0.05:2", cut)
		}},
	}
	for _, sc := range scenarios {
		for seed := int64(0); seed < 8; seed++ {
			cfg := Config{Procs: 4, Seed: seed, RecoveryQuiet: 3}
			sc.mut(&cfg)
			res := Run(tr, cfg)
			if !res.Terminated || !res.OptimumOK {
				t.Fatalf("%s/seed %d: %+v", sc.name, seed, res)
			}
			// Redundant work is the price of uncoordinated fault tolerance,
			// but it must stay bounded: a run-away re-expansion loop would
			// redo the tree many times over.
			if res.Redundant > 5*res.Unique {
				t.Fatalf("%s/seed %d: unbounded redundancy: %d redundant vs %d unique",
					sc.name, seed, res.Redundant, res.Unique)
			}
		}
	}
}

// TestChaosDupReorderDeterministic: adversarial delivery draws from the same
// seeded kernel source, so even maximally mangled runs stay reproducible.
func TestChaosDupReorderDeterministic(t *testing.T) {
	tr := btree.Tiny(23)
	cfg := Config{Procs: 4, Seed: 42, RecoveryQuiet: 3,
		Duplicate: 0.3, Reorder: 0.5, Nemesis: faults(t, "replay:0.1:1"),
		Crashes: []Crash{{Time: 1, Node: 2, Restart: 3}}}
	a, b := Run(tr, cfg), Run(tr, cfg)
	if a.Time != b.Time || a.Expanded != b.Expanded || a.Net != b.Net {
		t.Errorf("nondeterministic under full chaos:\n%+v\nvs\n%+v", a.Net, b.Net)
	}
}
