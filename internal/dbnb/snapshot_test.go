package dbnb

import (
	"math/rand"
	"testing"

	"gossipbnb/internal/btree"
)

// TestSnapshotSharedMesh: table pushes carry the sender's cached snapshot by
// reference, so on a 4-shard mesh one snapshot can be merged by receivers on
// several shard goroutines in the same lookahead window. A starving process
// pushes its table with every probe; a 50 ms retry pace against 3.47 s
// expansions makes one unchanged table go to many peers, and those merges
// overlap: a Merge that writes into its argument fails this test under -race
// at every seed tried. The run must also match the one-shard run, which
// shares nothing across goroutines.
func TestSnapshotSharedMesh(t *testing.T) {
	tr := btree.Random(rand.New(rand.NewSource(1)), btree.RandomConfig{
		Size: 2001, Cost: btree.CostModel{Mean: 3.47, Sigma: 0.6}, BoundSpread: 1, FeasibleProb: 0.05,
	})
	run := func(shards int) Result {
		res := Run(tr, Config{Procs: 64, Seed: 1, RecoveryQuiet: 120, retryDelay: 0.05, Shards: shards})
		mustTerminate(t, res)
		return res
	}
	one, four := run(1), run(4)
	if four.Shards != 4 {
		t.Fatalf("ran on %d shards, want 4", four.Shards)
	}
	pushes := 0
	for i := range four.Met.Nodes {
		pushes += four.Met.Nodes[i].TablesSent
	}
	t.Logf("%d table pushes over %d processes on 4 shards", pushes, len(four.Met.Nodes))
	if pushes < 1000 {
		t.Fatalf("%d table pushes: too few to share snapshots across shards", pushes)
	}
	if one.Time != four.Time || one.Expanded != four.Expanded || one.Completions != four.Completions {
		t.Errorf("S=4 time %g expanded %d completions %d; S=1 %g %d %d",
			four.Time, four.Expanded, four.Completions, one.Time, one.Expanded, one.Completions)
	}
}
