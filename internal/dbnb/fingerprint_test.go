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
// tries too moved ten strings; fpMultiStaggered[2] and [3] stayed. A
// starving probe that carries the table push, instead of a push beside it,
// is a protocol change and moved all twelve.
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
	fpMeshProblem       = "t=10.066355546875007 first=10.064540546875007 exp=1634 uniq=1634 comp=1609 sent=435 bytes=23970 kinds=[0 260 0 88 21 66] per=[398 206 8 258 326 97 66 275]"
	fpMeshJoins         = "t=5.824511992654576 first=5.822696992654576 exp=301 uniq=301 comp=151 sent=209 bytes=7383 kinds=[0 74 0 64 9 54 0 4 4] per=[72 80 52 13 0 0 0 36 0 2 4 42]"
	fpMeshChaosS1       = "t=11.023092744014232 first=11.020935677540567 exp=557 uniq=301 comp=232 sent=166 bytes=6517 kinds=[0 78 0 46 12 30] per=[157 37 26 77 117 0 96 47]"
	fpMeshChaosS4       = "t=11.657886201915199 first=11.656071201915198 exp=570 uniq=301 comp=252 sent=185 bytes=7492 kinds=[0 84 0 53 16 32] per=[172 31 50 67 124 0 75 51]"
	fpDiffMesh          = "t=11.273291557162349 first=11.271016557162348 exp=301 uniq=301 comp=151 sent=292 bytes=8872 kinds=[0 21 0 92 13 79 69 9 9] per=[81 20 92 1 42 7 8 50]"
	fpMembershipRestart = "t=11.467290544771986 first=11.465475544771985 exp=121 uniq=121 comp=61 sent=196 bytes=5503 kinds=[0 28 0 28 5 18 0 0 0 0 0 0 117] per=[47 18 39 17 0]"
)

var (
	fpMultiStaggered = [4]string{
		"t=2.409544374999999 first=2.407724374999999 exp=339 uniq=339 comp=325 sent=490 bytes=16559 kinds=[0 252 1 121 14 102] per=[101 139 18 43 0 38 0 0]",
		"t=10.022025000000001 first=10.020205 exp=816 uniq=816 comp=795 sent=0 bytes=0 kinds=[] per=[155 176 0 153 0 0 0 332]",
		"t=12.519219453125 first=12.517399453125 exp=262 uniq=262 comp=256 sent=0 bytes=0 kinds=[] per=[0 0 151 111 0 0 0 0]",
		"t=18.014374999999998 first=18.012555 exp=311 uniq=311 comp=299 sent=0 bytes=0 kinds=[] per=[0 0 104 114 0 14 79 0]",
	}
	fpMultiCrashes = [2]string{
		"t=5.007425 first=5.005605 exp=337 uniq=337 comp=323 sent=261 bytes=8300 kinds=[0 109 1 82 9 60] per=[145 44 0 0 148 0]",
		"t=20.66537859375 first=20.66355859375 exp=753 uniq=720 comp=731 sent=0 bytes=0 kinds=[] per=[253 199 6 131 0 164]",
	}
)
