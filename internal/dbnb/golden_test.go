package dbnb

import (
	"math"
	"math/rand"
	"regexp"
	"testing"

	"gossipbnb/internal/btree"
	"gossipbnb/internal/sim"
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
// The Table-1 pair was re-pinned once more (0xe71e4a59ba937baa /
// 0xab14a9bf4268e204 → 0xb1112ad0bd42019c / 0x2193aa5f5cbe50e2, 78 805 →
// 78 798 events) when a table push began to travel as its trie (EXPERIMENTS.md,
// "A table push on the wire as its trie"): pushes are smaller, so they land
// sooner. The chaos pair stayed: that run's 48 pushes weigh 871 bytes under
// either body, as all but one carry an empty table, one byte in both. And
// TestFingerprintSizeFreeLatency, which takes latency's size term away, did
// not move at all. The same held when reports, digest reports and leaf
// subtree replies began to travel as tries too (EXPERIMENTS.md, "One format
// for a set of codes"): the Table-1 pair went 0xb1112ad0bd42019c /
// 0x2193aa5f5cbe50e2 → 0xa9959b59efbb78b5 / 0x75541b58f331cd7f, 78 798 →
// 70 726 events, and the chaos pair stayed.
//
// The prefix hashes cover the events with t < FirstDetect. If a prefix hash
// moves, the kernel or the protocol changed behaviour while work was still in
// progress; if only a full hash moves, termination or the drain after it did.
// Either way find out what moved it before refreshing.
const (
	goldenTable1Prefix uint64 = 0xa9959b59efbb78b5 // 70 307 of 70 726 events, first detection at t = 375.85433881049266
	goldenChaosPrefix  uint64 = 0x5a25b1de518749cd // 789 of 820 events, first detection at t = 14.299697841017444
	goldenTable1Hash   uint64 = 0x75541b58f331cd7f
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

// goldenTable1 is the size-scaled Table 1 workload (8001 nodes, 3.47 s mean
// cost) on 100 processes: the frontier table1-100 row of the diff-bytes
// figure, whose report-path bytes internal/exp's golden pins.
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

// hashRun replays a golden scenario and returns its result, the hash of its
// whole event stream and that of the prefix before the first termination
// detection.
func hashRun(t *testing.T, tree *btree.Tree, cfg Config) (res Result, full, prefix uint64) {
	t.Helper()
	var events []fired
	cfg.fireHook = func(t float64, seq uint64) { events = append(events, fired{t, seq}) }
	res = Run(tree, cfg)
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
	return res, all.h, pre.h
}

func checkGolden(t *testing.T, tree *btree.Tree, cfg Config, wantFull, wantPrefix uint64) {
	t.Helper()
	_, full, prefix := hashRun(t, tree, cfg)
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

var bytesField = regexp.MustCompile(` bytes=\d+`)

// TestFingerprintSizeFreeLatency: what a change to the wire size of a message
// may move, and what it may not. On a network whose latency is the paper's
// 1.5 ms floor alone, no delivery time depends on a message's size, so the
// two golden scenarios are pinned by everything but their byte counts — the
// fingerprint less its bytes= field, and both event-order hashes. A change to
// how a message is encoded that moves any of it changed behaviour, not just
// bytes and the latency they cost.
func TestFingerprintSizeFreeLatency(t *testing.T) {
	for _, g := range []struct {
		name         string
		scenario     func() (*btree.Tree, Config)
		fp           string
		full, prefix uint64
	}{
		{"table1", goldenTable1, sizeFreeTable1FP, sizeFreeTable1Hash, sizeFreeTable1Prefix},
		{"chaos", goldenChaos, sizeFreeChaosFP, sizeFreeChaosHash, sizeFreeChaosPrefix},
	} {
		t.Run(g.name, func(t *testing.T) {
			tree, cfg := g.scenario()
			cfg.Latency = sim.LinearLatency(1.5e-3, 0)
			res, full, prefix := hashRun(t, tree, cfg)
			checkFingerprint(t, g.name+" size-free", bytesField.ReplaceAllString(fingerprint(res), ""), g.fp)
			if full != g.full || prefix != g.prefix {
				t.Errorf("%s size-free event-order hashes = %#x / %#x, want %#x / %#x", g.name, full, prefix, g.full, g.prefix)
			}
		})
	}
}

// The size-free pins, captured when they were added and unchanged since by
// design: every change after that moved only what a message weighs.
const (
	sizeFreeTable1FP            = "t=385.1531549465192 first=385.15143494651915 exp=8001 uniq=8001 comp=4001 sent=24779 kinds=[0 3261 6592 7463 1212 6251] per=[84 84 92 81 76 80 83 85 73 65 79 80 80 83 74 84 84 74 79 82 74 78 74 78 77 79 77 73 94 84 71 76 87 90 81 75 84 79 80 75 73 66 78 97 68 80 78 77 83 85 100 70 80 75 87 89 76 69 92 71 78 87 70 76 80 76 78 71 73 83 86 69 97 84 72 80 89 89 87 77 91 84 74 86 82 89 86 82 77 84 74 84 83 79 85 81 74 77 77 68]"
	sizeFreeChaosFP             = "t=14.388910744840878 first=14.298762841017442 exp=289 uniq=107 comp=134 sent=171 kinds=[0 19 48 54 2 48] per=[11 7 16 51 51 30 93 30]"
	sizeFreeTable1Hash   uint64 = 0x2631a06bd19b88e8 // 78 202 events
	sizeFreeTable1Prefix uint64 = 0xabb7289ae89838e9 // 77 800 before the first detection
	sizeFreeChaosHash    uint64 = 0x00370b1b28eda6ce // 817 events
	sizeFreeChaosPrefix  uint64 = 0x83494fd0e74af8de // 786 before the first detection
)
