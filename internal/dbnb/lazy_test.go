package dbnb

import (
	"math/rand"
	"testing"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/code"
	"gossipbnb/internal/protocol"
)

// A context builds its expander on first use, and a core's tables allocate
// their walk scratch and digest side array on first use. These runs go
// through the paths where that first use is not the obvious one — a grant to
// a process that never expanded, a restart of one that never did, tables
// recycled through the core's table pool, digests read off lazily built side
// arrays — on two shards, where the lazy construction runs on the shard
// goroutines. Each must reach the sequential optimum on exactly the
// trajectory the eagerly built state gave: the fingerprints were captured
// with every expander built at construction and every table carrying its
// scratch from New.

// firstUse records which call built a context's expander.
type firstUse struct {
	protocol.Expander
	first string
}

func (f *firstUse) note(call string) {
	if f.first == "" {
		f.first = call
	}
}

func (f *firstUse) Locate(c code.Code) (protocol.Item, bool) {
	f.note("Locate")
	return f.Expander.Locate(c)
}

func (f *firstUse) Root() protocol.Item {
	f.note("Root")
	return f.Expander.Root()
}

func (f *firstUse) Outcome(it protocol.Item) protocol.Outcome {
	f.note("Outcome")
	return f.Expander.Outcome(it)
}

// tracedHarness is the single-problem harness of RunProblemRef, each
// context's expander wrapped in a firstUse.
func tracedHarness(p bnb.Problem, ref bnb.Result, cfg Config) *harness {
	w := problemWorkload(p, ref)
	inner := w.newExpander
	w.newExpander = func() protocol.Expander { return &firstUse{Expander: inner()} }
	return newHarness(cfg, []*spec{{w: w}}, false)
}

// firstCall is what built n's expander: "" if nothing has.
func firstCall(n *node) string {
	if n.exp == nil {
		return ""
	}
	return n.exp.(*firstUse).first
}

// lazyKnapsack is big enough that the root process shares work.
func lazyKnapsack() (bnb.Problem, bnb.Result) {
	k := bnb.RandomKnapsack(rand.New(rand.NewSource(29)), 24)
	return k, bnb.SolveProblem(k)
}

// runTraced runs h and checks the single instance against its fingerprint.
func runTraced(t *testing.T, h *harness, want string) {
	t.Helper()
	mr := h.run()
	if ir := mr.Instances[0]; !ir.Terminated || !ir.OptimumOK {
		t.Fatalf("terminated %v, optimum ok %v", ir.Terminated, ir.OptimumOK)
	}
	checkFingerprint(t, t.Name(), multiFingerprint(mr)[0], want)
}

// TestLazyExpanderGrant: the root process builds its expander to seed the
// root; a process whose first work arrives in a grant builds its expander in
// the core's Locate of the granted codes; a process that never expands or
// resolves a code never builds one.
func TestLazyExpanderGrant(t *testing.T) {
	k, ref := lazyKnapsack()
	h := tracedHarness(k, ref, lazyGrantConfig)
	for i, n := range h.nodes {
		if n.exp != nil {
			t.Fatalf("process %d built its expander before the run", i)
		}
	}
	runTraced(t, h, fpLazyGrant)
	located, idle := 0, 0
	for i, n := range h.nodes {
		switch first := firstCall(n); {
		case i == 0 && first != "Root":
			t.Errorf("the root process's expander was built by %q, want Root", first)
		case i > 0 && first == "Locate":
			located++
		case i > 0 && first == "":
			idle++
			if n.met.Expanded > 0 {
				t.Errorf("process %d expanded %d times without an expander", i, n.met.Expanded)
			}
		case i > 0:
			t.Errorf("process %d's expander was built by %q, want Locate or nothing", i, first)
		}
	}
	if located == 0 || idle == 0 {
		t.Fatalf("%d processes built an expander on a grant, %d never built one: want both", located, idle)
	}
}

// TestLazyExpanderRestart: a process that crashes before it ever expanded
// restarts with no expander and builds one on its first grant; one that
// crashes after expanding restarts without the dead incarnation's expander
// and builds a fresh one.
func TestLazyExpanderRestart(t *testing.T) {
	k, ref := lazyKnapsack()
	cfg := lazyRestartConfig
	h := tracedHarness(k, ref, cfg)
	idle, busy := h.nodes[cfg.Crashes[0].Node], h.nodes[cfg.Crashes[1].Node]
	var dead protocol.Expander
	// Probes fire after the crash and restart events at the same instant:
	// they were scheduled later, and they only read.
	h.shardOf(int(idle.id)).k.At(cfg.Crashes[0].Time, func() {
		if !idle.crashed || idle.exp != nil || idle.counters().Expanded != 0 {
			t.Errorf("crash of process %d: crashed %v, expander built %v, %d expansions; want a process that never expanded",
				idle.id, idle.crashed, idle.exp != nil, idle.counters().Expanded)
		}
	})
	h.shardOf(int(busy.id)).k.At(cfg.Crashes[1].Time, func() {
		if dead = busy.exp; !busy.crashed || dead == nil || busy.counters().Expanded == 0 {
			t.Errorf("crash of process %d: crashed %v, expander built %v, %d expansions; want a process that expanded",
				busy.id, busy.crashed, dead != nil, busy.counters().Expanded)
		}
	})
	for i, n := range []*node{idle, busy} {
		h.shardOf(int(n.id)).k.At(cfg.Crashes[i].Restart, func() {
			if n.crashed || n.exp != nil {
				t.Errorf("restart of process %d: crashed %v, expander carried over %v", n.id, n.crashed, n.exp != nil)
			}
		})
	}
	runTraced(t, h, fpLazyRestart)
	for _, n := range []*node{idle, busy} {
		if first := firstCall(n); first != "Locate" {
			t.Errorf("process %d rebuilt its expander in %q, want Locate (a grant or a recovery)", n.id, first)
		}
	}
	if busy.exp == dead {
		t.Error("the restarted process kept the dead incarnation's expander")
	}
}

// TestLazyExpanderRestartGranted holds TestLazyExpanderRestart's subject by
// construction rather than by the draw: of two processes, the restarted one's
// only peer is the root process, which still holds a deep pool, so the
// restarted process's first probe is granted and it rebuilds its expander in
// the grant's Locate, at every seed.
func TestLazyExpanderRestartGranted(t *testing.T) {
	k, ref := lazyKnapsack()
	for seed := int64(1); seed <= 10; seed++ {
		cfg := Config{Procs: 2, Seed: seed, Prune: true, Shards: 2,
			Crashes: []Crash{{Time: 0.5, Node: 1, Restart: 1}}}
		h := tracedHarness(k, ref, cfg)
		n := h.nodes[1]
		h.shardOf(int(n.id)).k.At(cfg.Crashes[0].Restart, func() {
			if n.crashed || n.exp != nil {
				t.Errorf("seed %d: restart of process 1: crashed %v, expander carried over %v", seed, n.crashed, n.exp != nil)
			}
		})
		mr := h.run()
		if ir := mr.Instances[0]; !ir.Terminated || !ir.OptimumOK {
			t.Fatalf("seed %d: terminated %v, optimum ok %v", seed, ir.Terminated, ir.OptimumOK)
		}
		if first := firstCall(n); first != "Locate" {
			t.Errorf("seed %d: the restarted process rebuilt its expander in %q, want Locate", seed, first)
		}
		if c := n.core.Counters(); c.Expanded == 0 {
			t.Errorf("seed %d: the restarted incarnation expanded nothing", seed)
		}
	}
}

// TestLazyDigestsDiffGossip: under diff gossip every table's digest side
// array is built by the first digest a report or a walk asks of it.
func TestLazyDigestsDiffGossip(t *testing.T) {
	k, ref := lazyKnapsack()
	runTraced(t, tracedHarness(k, ref, lazyDiffConfig), fpLazyDiff)
}

// TestLazyScratchPooledTables: instance-scoped crash-restarts on processes
// that already reaped an instance open their fresh cores over tables the
// reap returned to the core's table pool — arenas, walk scratch and digest
// side arrays included — and a second run opens its cores over what the first
// one's reaps returned. Both runs follow the fingerprinted trajectory.
func TestLazyScratchPooledTables(t *testing.T) {
	for run := 0; run < 2; run++ {
		mr := RunInstances(lazyPoolConfig())
		if !mr.Terminated {
			t.Fatalf("run %d: not all instances terminated", run)
		}
		for i, ir := range mr.Instances {
			if !ir.OptimumOK {
				t.Fatalf("run %d: instance %d missed the sequential optimum", run, i+1)
			}
		}
		checkMultiFingerprint(t, "pooled tables", multiFingerprint(mr), fpLazyPool[:])
	}
}

var (
	lazyGrantConfig = Config{Procs: 8, Seed: 3, Prune: true, Shards: 2}
	// Seed 28: at seed 6, once starving probes carried the table push, the run
	// ended before restarted process 2 was granted any work.
	lazyRestartConfig = Config{Procs: 8, Seed: 28, Prune: true, Shards: 2, RecoveryQuiet: 3,
		Crashes: []Crash{{Time: 0.5, Node: 7, Restart: 1.5}, {Time: 2, Node: 2, Restart: 2.5}}}
	lazyDiffConfig = Config{Procs: 8, Seed: 9, Prune: true, Shards: 2, DiffGossip: true}
)

func lazyPoolConfig() Config {
	return Config{Procs: 6, Seed: 23, Prune: true, Select: DepthFirst, Shards: 2, DiffGossip: true,
		Instances: fourInstances(),
		Crashes:   []Crash{{Time: 9, Node: 2, Instance: 2, Restart: 10}, {Time: 16.5, Node: 4, Instance: 3, Restart: 17}}}
}

const (
	fpLazyGrant   = "t=3.1927678125000005 first=3.1896478125000005 exp=436 uniq=436 comp=434 sent=185 bytes=15458 kinds=[0 124 0 31 4 26] per=[220 0 0 90 0 0 15 111]"
	fpLazyRestart = "t=16.105902890625 first=16.104087890625003 exp=661 uniq=531 comp=711 sent=449 bytes=39788 kinds=[0 213 0 120 7 109] per=[108 91 219 115 4 3 0 121]"
	fpLazyDiff    = "t=10.05099 first=10.049175 exp=610 uniq=610 comp=607 sent=552 bytes=28894 kinds=[0 26 0 84 5 79 166 96 96] per=[101 239 0 75 0 0 119 76]"
)

var fpLazyPool = [4]string{
	"t=7.273868828125001 first=7.272048828125001 exp=290 uniq=290 comp=278 sent=744 bytes=23923 kinds=[0 60 0 200 22 178 236 24 24] per=[126 0 0 0 0 164]",
	"t=13.097619921875006 first=13.095799921875006 exp=1023 uniq=1023 comp=997 sent=0 bytes=0 kinds=[] per=[107 401 103 141 138 133]",
	"t=17.029970000000006 first=17.028150000000007 exp=342 uniq=342 comp=333 sent=0 bytes=0 kinds=[] per=[187 0 155 0 0 0]",
	"t=23.102998203125004 first=23.101178203125006 exp=332 uniq=332 comp=319 sent=0 bytes=0 kinds=[] per=[0 110 51 112 9 50]",
}
