package dbnb

import (
	"math/rand"
	"testing"

	"gossipbnb/internal/btree"
	"gossipbnb/internal/code"
	"gossipbnb/internal/protocol"
)

// sharedTally sums, over every code batch a run sends, the decisions a code
// repeats from its predecessor in the batch — what front coding leaves off the
// wire — and all the decisions the batch holds, and the densest batch seen in
// decisions per encoded byte, which is what code.MaxExpand caps.
type sharedTally struct {
	shared, all, batches int
	densest              float64
}

func (s *sharedTally) observe(m protocol.Msg) {
	var cs []code.Code
	switch t := m.(type) {
	case protocol.Report:
		cs = t.Codes
	case protocol.TableMsg:
		cs = t.Frontier()
	case protocol.DigestReport:
		cs = t.Codes
	case protocol.WorkGrant:
		cs = t.Codes
	case protocol.SubtreeReply:
		cs = t.Rel
	default:
		return
	}
	s.batches++
	decs := 0
	for i, c := range cs {
		decs += len(c)
		if i > 0 {
			s.shared += code.CommonPrefixLen(cs[i-1], c)
		}
	}
	s.all += decs
	s.densest = max(s.densest, float64(decs)/float64(code.WireSizeAll(cs)))
}

// TestFrontierSharedPrefixFraction is what says front coding pays: of all the
// decisions in the code batches of a Table-1 replay (100 processes, a
// 12 001-node tree) and of a crash-and-loss run shaped like the benchmark's
// sim-faults, at least 0.6 repeat the predecessor's prefix (measured 0.82 and
// 0.72). A change to what gets sent — fewer table pushes, deltas instead of
// frontiers — that takes the fraction under a half takes the format's reason
// with it; this test is where that shows.
func TestFrontierSharedPrefixFraction(t *testing.T) {
	if testing.Short() {
		t.Skip("a full Table-1 run")
	}
	table1 := func(seed int64, size int) *btree.Tree {
		return btree.Random(rand.New(rand.NewSource(seed)), btree.RandomConfig{
			Size: size, Cost: btree.CostModel{Mean: 3.47, Sigma: 0.6}, BoundSpread: 1, FeasibleProb: 0.05,
		})
	}
	faultsTree := table1(2, 2501)
	const faultsProcs, faultsCrashes = 32, 24
	est := faultsTree.Stats().TotalCost / faultsProcs
	var crashes []Crash
	for c := 1; c <= faultsCrashes; c++ {
		cr := Crash{Time: est * (0.09 + 0.018*float64(c)), Node: c}
		if c%3 == 0 {
			cr.Restart = cr.Time + 0.09*est
		}
		crashes = append(crashes, cr)
	}
	for _, run := range []struct {
		name string
		tree *btree.Tree
		cfg  Config
	}{
		{"table1", table1(1, 12001), Config{Procs: 100, Seed: 1, RecoveryQuiet: 120}},
		{"faults", faultsTree, Config{Procs: faultsProcs, Seed: 2, RecoveryQuiet: 120, Crashes: crashes,
			Loss: 0.05, Duplicate: 0.05, Reorder: 0.05}},
	} {
		var tally sharedTally
		run.cfg.sendHook = tally.observe
		mustTerminate(t, Run(run.tree, run.cfg))
		frac := float64(tally.shared) / float64(tally.all)
		t.Logf("%s: %d of %d decisions in %d batches repeat the predecessor's prefix (%.3f); the densest batch holds %.2f per byte",
			run.name, tally.shared, tally.all, tally.batches, frac, tally.densest)
		if tally.densest > code.MaxExpand/4 {
			t.Errorf("%s: a batch of %.1f decisions per byte is within 4× of what a receiver refuses (%d)", run.name, tally.densest, code.MaxExpand)
		}
		if tally.batches < 1000 || frac < 0.6 {
			t.Errorf("%s: shared-prefix fraction %.3f over %d batches, want at least 0.6 over at least 1000",
				run.name, frac, tally.batches)
		}
	}
}
