package dbnb

import (
	"math"
	"math/rand"
	"testing"

	"gossipbnb/internal/btree"
)

// Golden event-order hashes. Each constant is the FNV-1a hash of the exact
// (time, seq) stream of kernel events fired during a seeded run on the
// Shards == 0 kernel: the paper's reproducibility claim (§6.2) rests on
// seeded runs being exactly repeatable, so a change that moves even one
// tie-break silently invalidates every recorded experiment.
//
// The full hashes were first captured against the container/heap kernel that
// ISSUE 5 replaced (0x7840152e70264cce, 0xc9678d4fd42684a6) and held through
// every kernel and driver rewrite after it. One change moved them, on
// purpose: termination stopped echoing. Only a process that detects
// termination broadcasts the root report, one that is told forwards it to
// ReportFanout members, and a terminated context cancels its timer chains —
// so the tail of each run has fewer deliveries and fewer dead timer ticks
// (Table 1: 75 052 events became 65 187; chaos: 670 became 638). That change
// cannot reach an event before the first detection, which is what the prefix
// hashes prove: they cover the events with t < FirstDetect, were captured on
// the commit before it, and did not move.
//
// If a prefix hash moves, the kernel or the protocol changed behaviour while
// work was still in progress; if only a full hash moves, termination or the
// drain after it did. Either way find out what moved it before refreshing.
const (
	goldenTable1Prefix uint64 = 0x1ac69549e0ffe6f8 // 64 553 events, first detection at t = 381.74060887809895
	goldenChaosPrefix  uint64 = 0xae46219f2c4351bb // 571 events, first detection at t = 14.345967461457334
	goldenTable1Hash   uint64 = 0xe942895349a4af6c
	goldenChaosHash    uint64 = 0x7c0f9f44858296c2
)

// fired is one kernel event as the fire hook saw it.
type fired struct {
	t   float64
	seq uint64
}

// fnvStream folds fired-event (time, seq) pairs into a running FNV-1a hash.
type fnvStream struct{ h uint64 }

func newFNVStream() *fnvStream { return &fnvStream{h: 14695981039346656037} }

func (f *fnvStream) observe(t float64, seq uint64) {
	const prime = 1099511628211
	bits := math.Float64bits(t)
	for i := 0; i < 8; i++ {
		f.h = (f.h ^ (bits & 0xff)) * prime
		bits >>= 8
	}
	for i := 0; i < 8; i++ {
		f.h = (f.h ^ (seq & 0xff)) * prime
		seq >>= 8
	}
}

// goldenTable1 is the BenchmarkTable1/procs=100 scenario: the size-scaled
// Table 1 workload (8001 nodes, 3.47 s mean cost) on 100 processes.
func goldenTable1() (*btree.Tree, Config) {
	r := rand.New(rand.NewSource(1))
	tree := btree.Random(r, btree.RandomConfig{
		Size:         8001,
		Cost:         btree.CostModel{Mean: 3.47, Sigma: 0.6},
		BoundSpread:  1,
		FeasibleProb: 0.05,
	})
	return tree, Config{Procs: 100, Seed: 1, RecoveryQuiet: 120}
}

// goldenChaos is a chaos-soak scenario: loss, duplication, reordering,
// replay, a crash-stop, and a crash-restart in one seeded run. The restart
// matters specifically: it exercises the orphaned-callback path where a dead
// incarnation's busy-period event still fires as a no-op, which the kernel
// swap must preserve event-for-event.
func goldenChaos() (*btree.Tree, Config) {
	r := rand.New(rand.NewSource(13))
	tree := btree.Random(r, btree.RandomConfig{
		Size:         1201,
		Cost:         btree.CostModel{Mean: 0.05, Sigma: 0.5},
		BoundSpread:  2,
		FeasibleProb: 0.1,
	})
	return tree, Config{
		Procs:         8,
		Seed:          13,
		Prune:         true,
		Select:        DepthFirst,
		Loss:          0.05,
		Duplicate:     0.1,
		Reorder:       0.1,
		Replay:        0.05,
		RecoveryQuiet: 8,
		Crashes: []Crash{
			{Time: 5, Node: 1, Restart: 25},
			{Time: 9, Node: 2},
		},
	}
}

// hashRun replays a golden scenario and returns the hash of its whole event
// stream and of the prefix before the first termination detection.
func hashRun(t *testing.T, tree *btree.Tree, cfg Config) (full, prefix uint64) {
	t.Helper()
	var events []fired
	cfg.fireHook = func(t float64, seq uint64) { events = append(events, fired{t, seq}) }
	res := Run(tree, cfg)
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("golden run failed: terminated=%v optimumOK=%v", res.Terminated, res.OptimumOK)
	}
	all, pre, n := newFNVStream(), newFNVStream(), 0
	for _, e := range events {
		all.observe(e.t, e.seq)
		if e.t < res.FirstDetect {
			pre.observe(e.t, e.seq)
			n++
		}
	}
	t.Logf("%d events, %d before the first detection at t = %v", len(events), n, res.FirstDetect)
	return all.h, pre.h
}

func checkGolden(t *testing.T, tree *btree.Tree, cfg Config, wantFull, wantPrefix uint64) {
	t.Helper()
	full, prefix := hashRun(t, tree, cfg)
	if prefix != wantPrefix {
		t.Errorf("event-order hash before the first detection = %#x, want %#x — the run changed while work was in progress", prefix, wantPrefix)
	}
	if full != wantFull {
		t.Errorf("event-order hash = %#x, want %#x — the firing order changed", full, wantFull)
	}
}

func TestGoldenEventOrderTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table-1 run")
	}
	tree, cfg := goldenTable1()
	checkGolden(t, tree, cfg, goldenTable1Hash, goldenTable1Prefix)
}

func TestGoldenEventOrderChaos(t *testing.T) {
	tree, cfg := goldenChaos()
	checkGolden(t, tree, cfg, goldenChaosHash, goldenChaosPrefix)
}
