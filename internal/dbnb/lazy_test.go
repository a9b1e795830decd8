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
	lazyGrantConfig   = Config{Procs: 8, Seed: 3, Prune: true, Shards: 2}
	lazyRestartConfig = Config{Procs: 8, Seed: 6, Prune: true, Shards: 2, RecoveryQuiet: 3,
		Crashes: []Crash{{Time: 0.5, Node: 7, Restart: 1.5}, {Time: 2, Node: 2, Restart: 2.5}}}
	lazyDiffConfig = Config{Procs: 8, Seed: 9, Prune: true, Shards: 2, DiffGossip: true}
)

func lazyPoolConfig() Config {
	return Config{Procs: 6, Seed: 23, Prune: true, Select: DepthFirst, Shards: 2, DiffGossip: true,
		Instances: fourInstances(),
		Crashes:   []Crash{{Time: 9, Node: 2, Instance: 2, Restart: 10}, {Time: 16.5, Node: 4, Instance: 3, Restart: 17}}}
}

const (
	fpLazyGrant   = "t=4.192282812499999 first=4.1904678125 exp=418 uniq=418 comp=416 sent=225 bytes=18437 kinds=[0 121 28 38 2 36] per=[215 0 15 0 0 0 188 0]"
	fpLazyRestart = "t=10.027057578125008 first=10.025242578125008 exp=678 uniq=671 comp=772 sent=447 bytes=39203 kinds=[0 221 61 83 13 69] per=[210 0 246 16 14 28 107 57]"
	fpLazyDiff    = "t=9.951399140625002 first=9.949584140625001 exp=592 uniq=592 comp=589 sent=545 bytes=28478 kinds=[0 21 0 83 7 76 234 62 62] per=[138 214 0 20 91 0 110 19]"
)

var fpLazyPool = [4]string{
	"t=7.233048515625002 first=7.231228515625003 exp=289 uniq=289 comp=277 sent=889 bytes=26144 kinds=[0 60 0 197 27 169 386 25 25] per=[106 20 0 57 0 106]",
	"t=13.97903742187501 first=13.97721742187501 exp=776 uniq=776 comp=753 sent=0 bytes=0 kinds=[] per=[89 227 68 102 290 0]",
	"t=19.036005000000003 first=19.034185000000004 exp=364 uniq=364 comp=355 sent=0 bytes=0 kinds=[] per=[155 0 155 0 54 0]",
	"t=19.084815312500005 first=19.082995312500007 exp=327 uniq=327 comp=313 sent=0 bytes=0 kinds=[] per=[14 182 0 111 8 12]",
}
