package dbnb

import (
	"fmt"
	"testing"

	"gossipbnb/internal/btree"
	"gossipbnb/internal/metrics"
	"gossipbnb/internal/sim"
)

// Absolute fingerprints for the paths the two golden event-order hashes do
// not reach. The goldens pin legacy-kernel tree replays; every mesh and
// multi-instance test beside them compares a run only with itself
// (determinism, shard invariance), so a change that moved all shard counts
// together would pass. Each constant below was captured on the commit before
// the two simulator drivers were folded into one, and the fold had to leave
// every one of them alone. A fingerprint that moves means the driver changed
// observable behaviour: find out why before refreshing it.

// printFingerprint renders what a run did in counts and virtual times only —
// nothing that depends on wall-clock or on how the simulator batches events.
// %v on a float64 prints the shortest decimal that round-trips, so equal
// strings mean equal bits.
func printFingerprint(time, first float64, expanded, unique, completions int, net sim.NetStats, met *metrics.System) string {
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
		net := sim.NetStats{}
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

// TestFingerprintDiffGossip: the digest-walk report path on both kernels.
func TestFingerprintDiffGossip(t *testing.T) {
	for S, want := range []string{fpDiffLegacy, fpDiffMesh} {
		res := Run(fpTree(), Config{Procs: 8, Seed: 5, Shards: S, DiffGossip: true})
		mustTerminate(t, res)
		checkFingerprint(t, fmt.Sprintf("diff gossip Shards=%d", S), fingerprint(res), want)
	}
}

// TestFingerprintMembershipRestart: the §5.2 membership path (legacy kernel
// only) with a crash-restart and a crash-stop.
func TestFingerprintMembershipRestart(t *testing.T) {
	res := Run(btree.Tiny(14), Config{Procs: 5, Seed: 3, RecoveryQuiet: 5, UseMembership: true,
		Crashes: []Crash{{Time: 2, Node: 3, Restart: 8}, {Time: 3, Node: 4}}})
	mustTerminate(t, res)
	checkFingerprint(t, "membership restart", fingerprint(res), fpMembershipRestart)
}

// TestFingerprintMultiStaggered: four staggered instances. Shards 0 is in
// the list because it used to select a serial kernel for RunInstances and
// now means one mesh shard; the trajectories were the same before, and the
// fingerprint holds them to it.
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
	fpMeshProblem       = "t=11.120298671875016 first=11.118483671875016 exp=1473 uniq=1473 comp=1449 sent=500 bytes=69342 kinds=[0 250 74 88 8 80] per=[800 65 275 0 0 0 259 74]"
	fpMeshJoins         = "t=5.110166477254317 first=5.108351477254318 exp=301 uniq=301 comp=151 sent=325 bytes=14173 kinds=[0 168 35 57 11 46 0 4 4] per=[47 45 22 52 0 20 0 56 0 12 0 47]"
	fpMeshChaosS1       = "t=9.025890000000002 first=9.024075000000002 exp=301 uniq=301 comp=151 sent=171 bytes=9926 kinds=[0 83 24 35 4 25] per=[147 7 114 33 0 0 0 0]"
	fpMeshChaosS4       = "t=9.025690888871436 first=9.023875888871435 exp=301 uniq=301 comp=151 sent=171 bytes=9926 kinds=[0 83 24 35 4 25] per=[147 7 114 33 0 0 0 0]"
	fpDiffLegacy        = "t=10.900455261410523 first=10.898640261410522 exp=301 uniq=301 comp=151 sent=375 bytes=12743 kinds=[0 56 0 89 14 75 127 7 7] per=[80 83 36 0 39 17 14 32]"
	fpDiffMesh          = "t=11.762568169767967 first=11.760753169767966 exp=301 uniq=301 comp=151 sent=384 bytes=12143 kinds=[0 56 0 93 11 82 132 5 5] per=[74 30 0 85 38 23 11 40]"
	fpMembershipRestart = "t=14.459500371353752 first=6.459480371353765 exp=242 uniq=121 comp=122 sent=54 bytes=1695 kinds=[32 18 2 2] per=[121 0 0 121 0]"
)

var (
	fpMultiStaggered = [4]string{
		"t=2.2146335937499995 first=2.2128135937499995 exp=220 uniq=220 comp=212 sent=743 bytes=41650 kinds=[0 410 75 129 23 106] per=[151 0 0 0 50 19 0 0]",
		"t=10.157856406249996 first=10.156036406249996 exp=1021 uniq=1021 comp=997 sent=0 bytes=0 kinds=[] per=[47 213 0 164 169 209 12 207]",
		"t=13.015115000000002 first=13.013295000000001 exp=293 uniq=293 comp=285 sent=0 bytes=0 kinds=[] per=[0 0 149 0 107 33 0 4]",
		"t=17.698670390624997 first=17.696850390625 exp=311 uniq=311 comp=300 sent=0 bytes=0 kinds=[] per=[7 8 104 177 0 0 15 0]",
	}
	fpMultiCrashes = [2]string{
		"t=28.974220000000003 first=28.972400000000004 exp=306 uniq=305 comp=295 sent=607 bytes=32382 kinds=[0 133 164 177 6 127] per=[110 0 99 0 0 97]",
		"t=41.54544890624998 first=41.54345390624998 exp=669 uniq=666 comp=653 sent=0 bytes=0 kinds=[] per=[149 197 140 0 56 127]",
	}
)
