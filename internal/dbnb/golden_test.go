package dbnb

import (
	"math"
	"math/rand"
	"testing"

	"gossipbnb/internal/btree"
)

// Golden event-order hashes. Each constant is the FNV-1a hash of the exact
// (time, seq) stream of kernel events fired during a seeded run: the paper's
// reproducibility claim (§6.2) rests on seeded runs being exactly repeatable,
// so a change that moves even one tie-break silently invalidates every
// recorded experiment. The fire hook sits on shard 0's kernel and, like
// Trace, clamps the run to one shard — so what is pinned is the event order of
// the one-shard mesh, which is the kernel every default run uses.
//
// The constants were captured when the separate Shards == 0 kernel was
// deleted; the values they replaced pinned that kernel (EXPERIMENTS.md, "One
// kernel path", has old → new). The chaos scenario's failures moved at the same
// time (they were node 1 down 5–25 and node 2 down at 9): re-drawn, its pruned
// solve finishes at t ≈ 2.3, before the first of them, and the hash would have
// pinned a run without a single failure in it. The Table-1 pair was re-drawn
// when code batches became front-coded (EXPERIMENTS.md, "Front-coded
// frontiers"): a message's latency is a function of its size. The chaos pair
// stayed — that run's batches hold a single code, which encodes as before, but
// for one whose one shared decision pays exactly for its shared-length byte.
// The Table-1 full hash was re-pinned (0xfa4707bad76a9b33 → 0x565a379e52ecdbb8,
// 78 905 → 78 805 events) when the request deadline and the retry pace moved
// into the core behind one idle timer per context (EXPERIMENTS.md, "One idle
// discipline"): a terminating context now cancels a pending pace, where the
// old pace event fired as a no-op. Every other event kept its (time, seq).
// All four were re-pinned when the report check, the table push and the
// bootstrap retry joined that one timer (EXPERIMENTS.md, "One timer per
// core"): the three chains no longer draw sequence numbers, so the numbers
// move, while a dump of every fired event's time, every send (sender,
// receiver, kind, size) and every expansion is identical line for line.
//
// The prefix hashes cover the events with t < FirstDetect. If a prefix hash
// moves, the kernel or the protocol changed behaviour while work was still in
// progress; if only a full hash moves, termination or the drain after it did.
// Either way find out what moved it before refreshing.
const (
	goldenTable1Prefix uint64 = 0xe71e4a59ba937baa // 78 403 of 78 805 events, first detection at t = 385.15488494651896
	goldenChaosPrefix  uint64 = 0x5a25b1de518749cd // 789 of 820 events, first detection at t = 14.299697841017444
	goldenTable1Hash   uint64 = 0xab14a9bf4268e204
	goldenChaosHash    uint64 = 0xff7f24b14f03a255
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
// incarnation's busy-period event still fires as a no-op, which a kernel
// rewrite must preserve event-for-event — hence the seed process, which is
// expanding from t = 0, as the one that restarts.
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
			{Time: 0.5, Node: 0, Restart: 1.5},
			{Time: 0.9, Node: 2},
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
