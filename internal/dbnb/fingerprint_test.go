package dbnb

import (
	"fmt"
	"math/rand"
	"testing"

	"gossipbnb/internal/btree"
	"gossipbnb/internal/metrics"
	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/protocol"
)

// Absolute fingerprints for the paths the two golden event-order hashes do
// not reach. The goldens pin one-shard tree replays; every other shard-count
// and multi-instance test beside them compares a run only with itself
// (determinism, shard invariance), so a change that moved all shard counts
// together would pass. A fingerprint that moves means the driver or the
// protocol changed observable behaviour: find out why before refreshing it.
//
// The constants were first captured on the commit before the two simulator
// drivers were folded into one, and the fold left every one of them alone.
// They were re-pinned in "Termination without the storm" (PCG context
// streams, then no termination echo), and once more when the separate
// Shards == 0 kernel was deleted: that moved only the two constants that had
// been captured on it — fpDiffLegacy is gone, Shards 0 now being held to
// fpDiffMesh, and fpMembershipRestart was re-drawn — and not one bit of the
// rest. Front-coded code batches (ISSUE 22) changed what every multi-code
// message weighs, and a message's latency is a function of its size, so all
// twelve strings were re-drawn once more. The uniform recovery plan (ISSUE 24)
// moved fpMultiCrashes alone: it is the only run here whose recoverer ever
// faces a complement of more than one region — with one region the old plan
// and the new one make the same single draw. Table pushes that travel as
// tries (ISSUE 35) are lighter again and moved nine strings; fpDiffMesh (diff
// gossip sends no table push), fpMultiStaggered[2] and fpMultiCrashes[1]
// stayed. Reports, digest reports and leaf subtree replies that travel as
// tries too moved ten strings; fpMultiStaggered[2] and [3] stayed.
// EXPERIMENTS.md records each re-pin, value by value.

// printFingerprint renders what a run did in counts and virtual times only —
// nothing that depends on wall-clock or on how the simulator batches events.
// %v on a float64 prints the shortest decimal that round-trips, so equal
// strings mean equal bits.
func printFingerprint(time, first float64, expanded, unique, completions int, net nemesis.NetStats, met *metrics.System) string {
	per := make([]int, len(met.Nodes))
	for i := range met.Nodes {
		per[i] = met.Nodes[i].Expanded
	}
	kinds := net.KindSent[:]
	for len(kinds) > 0 && kinds[len(kinds)-1] == 0 {
		kinds = kinds[:len(kinds)-1]
	}
	return fmt.Sprintf("t=%v first=%v exp=%d uniq=%d comp=%d sent=%d bytes=%d kinds=%v per=%v",
		time, first, expanded, unique, completions, net.Sent, net.Bytes, kinds, per)
}

func fingerprint(r Result) string {
	return printFingerprint(r.Time, r.FirstDetect, r.Expanded, r.Unique, r.Completions, r.Net, r.Met)
}

// multiFingerprint is one line per instance; the network is shared, so its
// counters ride on the first line only.
func multiFingerprint(r MultiResult) []string {
	out := make([]string, len(r.Instances))
	for i, ir := range r.Instances {
		net := nemesis.NetStats{}
		if i == 0 {
			net = r.Net
		}
		out[i] = printFingerprint(ir.Time, ir.FirstDetect, ir.Expanded, ir.Unique, ir.Completions, net, r.Met.At(i))
	}
	return out
}

func checkFingerprint(t *testing.T, name, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s fingerprint moved:\n got %s\nwant %s", name, got, want)
	}
}

func checkMultiFingerprint(t *testing.T, name string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d instances, want %d", name, len(got), len(want))
	}
	for i := range got {
		checkFingerprint(t, fmt.Sprintf("%s instance %d", name, i+1), got[i], want[i])
	}
}

// fpTree is the tree-replay workload of the fingerprints: small enough that
// the per-process vector stays readable, big enough that work migrates.
func fpTree() *btree.Tree { return smallTree(4) }

// TestFingerprintMeshProblem: a failure-free code-driven solve on the mesh is
// one trajectory at every shard count.
func TestFingerprintMeshProblem(t *testing.T) {
	k, ref := shardKnapsack()
	for _, S := range []int{1, 4} {
		res := RunProblemRef(k, ref, Config{Procs: 8, Seed: 42, Prune: true, Select: DepthFirst, Shards: S})
		mustTerminate(t, res)
		checkFingerprint(t, fmt.Sprintf("mesh problem S=%d", S), fingerprint(res), fpMeshProblem)
	}
}

// TestFingerprintMeshJoins: elastic tree replay, joiners included in the
// per-process vector.
func TestFingerprintMeshJoins(t *testing.T) {
	for _, S := range []int{1, 4} {
		res := Run(fpTree(), Config{Procs: 8, Seed: 6, Shards: S, Joins: []Join{{Time: 1.5, Count: 4}}})
		mustTerminate(t, res)
		if res.Joined != 4 {
			t.Fatalf("S=%d: Joined = %d, want 4", S, res.Joined)
		}
		checkFingerprint(t, fmt.Sprintf("mesh joins S=%d", S), fingerprint(res), fpMeshJoins)
	}
}

// TestFingerprintMeshChaos: crash-stop, crash-restart, duplication and
// reordering. Chaos draws come from per-shard streams, so each shard count
// has its own (exactly repeatable) trajectory.
func TestFingerprintMeshChaos(t *testing.T) {
	for _, c := range []struct {
		S    int
		want string
	}{{1, fpMeshChaosS1}, {4, fpMeshChaosS4}} {
		res := Run(fpTree(), Config{
			Procs: 8, Seed: 9, Shards: c.S, RecoveryQuiet: 3,
			Duplicate: 0.05, Reorder: 0.05,
			Crashes: []Crash{{Time: 1, Node: 1, Restart: 3}, {Time: 2, Node: 5}},
			MaxTime: 1e6,
		})
		mustTerminate(t, res)
		checkFingerprint(t, fmt.Sprintf("mesh chaos S=%d", c.S), fingerprint(res), c.want)
	}
}

// TestFingerprintDiffGossip: the digest-walk report path, at the default
// shard count and the explicit one.
func TestFingerprintDiffGossip(t *testing.T) {
	for _, S := range []int{0, 1} {
		res := Run(fpTree(), Config{Procs: 8, Seed: 5, Shards: S, DiffGossip: true})
		mustTerminate(t, res)
		checkFingerprint(t, fmt.Sprintf("diff gossip Shards=%d", S), fingerprint(res), fpDiffMesh)
	}
}

// TestFingerprintDefaultIsOneShard: Config.Shards 0 is one shard, not a
// second kernel — the zero value and an explicit 1 are the same run, chaos
// draws included.
func TestFingerprintDefaultIsOneShard(t *testing.T) {
	k, ref := shardKnapsack()
	cfg := Config{Procs: 8, Seed: 11, Prune: true, RecoveryQuiet: 3, Loss: 0.05, Duplicate: 0.05,
		Crashes: []Crash{{Time: 1, Node: 2, Restart: 3}}, MaxTime: 1e6}
	var tree, problem [2]Result
	for S := range tree {
		cfg.Shards = S
		tree[S], problem[S] = Run(fpTree(), cfg), RunProblemRef(k, ref, cfg)
		mustTerminate(t, tree[S])
		mustTerminate(t, problem[S])
		if tree[S].Shards != 1 || problem[S].Shards != 1 {
			t.Errorf("Shards=%d ran on %d and %d shards, want 1", S, tree[S].Shards, problem[S].Shards)
		}
	}
	checkFingerprint(t, "Run at Shards=0 vs 1", fingerprint(tree[0]), fingerprint(tree[1]))
	checkFingerprint(t, "RunProblemRef at Shards=0 vs 1", fingerprint(problem[0]), fingerprint(problem[1]))
	if tree[0].Events != tree[1].Events || problem[0].Events != problem[1].Events {
		t.Errorf("event counts differ: Run %d vs %d, RunProblemRef %d vs %d",
			tree[0].Events, tree[1].Events, problem[0].Events, problem[1].Events)
	}
}

// TestFingerprintMembershipRestart: the §5.2 membership path with a
// crash-restart and a crash-stop.
func TestFingerprintMembershipRestart(t *testing.T) {
	res := Run(btree.Tiny(14), Config{Procs: 5, Seed: 3, RecoveryQuiet: 5, UseMembership: true,
		Crashes: []Crash{{Time: 2, Node: 3, Restart: 8}, {Time: 3, Node: 4}}})
	mustTerminate(t, res)
	checkFingerprint(t, "membership restart", fingerprint(res), fpMembershipRestart)
}

// TestMembershipShardInvariance: the §5.2 member of each process runs on its
// owner shard and draws from its own stream, so a membership run is the same
// at every shard count — failure-free, and through a crash-restart and a
// crash-stop — to the last count of its fingerprint.
func TestMembershipShardInvariance(t *testing.T) {
	// About 150 s of sequential work on 8 processes: the run outlasts the
	// restart and the crash-stopped process's exclusion.
	tr := btree.Random(rand.New(rand.NewSource(8)), btree.RandomConfig{
		Size: 301, Cost: btree.CostModel{Mean: 0.5, Sigma: 0.4}, BoundSpread: 1, FeasibleProb: 0.1,
	})
	for _, c := range []struct {
		name    string
		crashes []Crash
	}{
		{"failure-free", nil},
		{"crash-restart", []Crash{{Time: 2, Node: 3, Restart: 8}, {Time: 3, Node: 6}}},
	} {
		var want string
		for _, S := range []int{1, 2, 4} {
			res := Run(tr, Config{Procs: 8, Seed: 5, UseMembership: true, RecoveryQuiet: 5,
				Shards: S, Crashes: c.crashes})
			mustTerminate(t, res)
			if res.Shards != S {
				t.Fatalf("%s: Shards=%d ran on %d shards", c.name, S, res.Shards)
			}
			if res.Net.KindSent[protocol.KindHeartbeat] == 0 {
				t.Fatalf("%s: no heartbeat was sent", c.name)
			}
			got := fingerprint(res)
			if S == 1 {
				want = got
				continue
			}
			checkFingerprint(t, fmt.Sprintf("%s at Shards=%d vs 1", c.name, S), got, want)
		}
	}
}

// TestFingerprintMultiStaggered: four staggered instances. Shards 0 is in
// the list because it means one shard here as everywhere.
func TestFingerprintMultiStaggered(t *testing.T) {
	for _, S := range []int{0, 1, 4} {
		res := RunInstances(Config{Procs: 8, Seed: 13, Prune: true, Select: DepthFirst, Shards: S, Instances: fourInstances()})
		if !res.Terminated {
			t.Fatalf("S=%d: not all instances terminated", S)
		}
		checkMultiFingerprint(t, fmt.Sprintf("multi staggered Shards=%d", S), multiFingerprint(res), fpMultiStaggered[:])
	}
}

// TestFingerprintMultiCrashes: one instance-scoped failure and one
// whole-process failure, both crash-stop. No network chaos is on, so the
// crashes are the only disturbance and the trajectory is still the same at
// every shard count.
func TestFingerprintMultiCrashes(t *testing.T) {
	for _, S := range []int{0, 1, 4} {
		res := RunInstances(Config{
			Procs: 6, Seed: 19, Prune: true, Select: DepthFirst, Shards: S,
			Instances: fourInstances()[:2],
			Crashes:   []Crash{{Time: 1, Node: 5, Instance: 1}, {Time: 7, Node: 1}},
		})
		if !res.Terminated {
			t.Fatalf("S=%d: not all instances terminated", S)
		}
		checkMultiFingerprint(t, fmt.Sprintf("multi crashes Shards=%d", S), multiFingerprint(res), fpMultiCrashes[:])
	}
}

const (
	fpMeshProblem       = "t=10.502531875000004 first=10.500716875000004 exp=1388 uniq=1388 comp=1367 sent=482 bytes=23465 kinds=[0 233 65 92 19 73] per=[442 44 163 154 116 90 379 0]"
	fpMeshJoins         = "t=6.520770000000001 first=6.518955000000001 exp=301 uniq=301 comp=151 sent=267 bytes=8913 kinds=[0 69 50 70 8 62 0 4 4] per=[100 93 38 0 13 0 0 10 0 0 1 46]"
	fpMeshChaosS1       = "t=10.77427785952513 first=10.77246285952513 exp=659 uniq=301 comp=295 sent=189 bytes=6935 kinds=[0 87 24 41 13 24] per=[140 81 26 118 108 0 69 117]"
	fpMeshChaosS4       = "t=9.301736335722172 first=9.299921335722171 exp=662 uniq=301 comp=298 sent=181 bytes=6543 kinds=[0 87 20 37 10 27] per=[140 80 26 126 108 0 69 113]"
	fpDiffMesh          = "t=10.99685835632244 first=10.995043356322439 exp=301 uniq=301 comp=151 sent=334 bytes=9243 kinds=[0 21 0 86 10 76 129 6 6] per=[76 0 98 18 19 16 36 38]"
	fpMembershipRestart = "t=9.997371096244025 first=9.938841884955918 exp=135 uniq=121 comp=72 sent=180 bytes=4897 kinds=[0 34 12 23 6 12 0 0 0 0 0 0 93] per=[43 0 55 17 20]"
)

var (
	fpMultiStaggered = [4]string{
		"t=2.4600616406249993 first=2.4582416406249994 exp=345 uniq=345 comp=329 sent=558 bytes=17417 kinds=[0 235 79 122 13 109] per=[142 117 44 0 0 42 0 0]",
		"t=10.670916171875009 first=10.669096171875008 exp=781 uniq=781 comp=759 sent=0 bytes=0 kinds=[] per=[0 266 191 64 74 0 186 0]",
		"t=12.381069140625005 first=12.378889140625004 exp=235 uniq=235 comp=228 sent=0 bytes=0 kinds=[] per=[0 0 235 0 0 0 0 0]",
		"t=18.01362 first=18.0118 exp=323 uniq=323 comp=310 sent=0 bytes=0 kinds=[] per=[0 101 99 116 0 7 0 0]",
	}
	fpMultiCrashes = [2]string{
		"t=4.5019771875 first=4.5001571875 exp=337 uniq=337 comp=323 sent=316 bytes=10303 kinds=[0 118 59 75 6 58] per=[145 0 0 44 148 0]",
		"t=20.069884375 first=20.068064375000002 exp=726 uniq=726 comp=706 sent=0 bytes=0 kinds=[] per=[407 197 0 114 3 5]",
	}
)
