package dbnb

import (
	"fmt"
	"math/rand"
	"testing"

	"gossipbnb/internal/btree"
	"gossipbnb/internal/code"
	"gossipbnb/internal/sim"
)

// The ghost ledger: why was an expansion redundant? The run's own books say
// only how many were (Result.Redundant). The ledger sits behind the harness's
// test-only ghost hook, sees every expansion at the moment it is booked, and
// sorts the redundant ones by what the rest of the system knew right then:
//
//   - known: some other live context's table already Contains the code — the
//     subproblem was complete somewhere, the news had not arrived;
//   - in progress: nobody has it complete, but a context that expanded it
//     before is alive in the same incarnation — its subtree is being worked on
//     (or was handed on) by a process that never failed;
//   - lost: neither — every previous expander crashed since; this is the only
//     redundancy the failures themselves make necessary.
//
// Known and in-progress redundancy is what a recovery plan causes when it
// re-creates a region nobody lost; that is the part a planner can be blamed
// for, and the part the test below bounds.
type ghostLedger struct {
	h         *harness
	expanders map[string][]ghostExpander
	known     int
	inFlight  int
	lost      int
}

// ghostExpander is one context incarnation that expanded a code.
type ghostExpander struct {
	n      *node
	incarn int
}

func (g *ghostLedger) note(n *node, c code.Code) {
	key := c.Key()
	prev := g.expanders[key]
	g.expanders[key] = append(prev, ghostExpander{n, n.incarn})
	if len(prev) == 0 {
		return // first expansion of this subproblem: not redundant
	}
	for _, m := range g.h.nodes {
		if m != n && !m.crashed && m.core.Table().Contains(c) {
			g.known++
			return
		}
	}
	for _, e := range prev {
		if !e.n.crashed && e.n.incarn == e.incarn {
			g.inFlight++
			return
		}
	}
	g.lost++
}

// faultsShape is bench/gb's sim-faults input i of a seed: a 2501-node
// Table 1-shaped tree on 32 processes, crashes 1..24 at est·(0.09+0.018·c),
// every third back 0.09·est later, 5 % loss, duplication and reordering.
func faultsShape(seed int64, i int) (*btree.Tree, Config) {
	s := sim.DeriveSeed(sim.DeriveSeed(seed, 2), i)
	tree := btree.Random(rand.New(rand.NewSource(s)), btree.RandomConfig{
		Size:         2501,
		Cost:         btree.CostModel{Mean: 3.47, Sigma: 0.6},
		BoundSpread:  1,
		FeasibleProb: 0.05,
	})
	const procs, crashes = 32, 24
	est := tree.Stats().TotalCost / procs
	cfg := Config{Procs: procs, Seed: s, Shards: 1, RecoveryQuiet: 120, Loss: 0.05, Duplicate: 0.05, Reorder: 0.05}
	for c := 1; c <= crashes; c++ {
		cr := Crash{Time: est * (0.09 + 0.018*float64(c)), Node: c}
		if c%3 == 0 {
			cr.Restart = cr.Time + 0.09*est
		}
		cfg.Crashes = append(cfg.Crashes, cr)
	}
	return tree, cfg
}

// TestRedundancyLedger is the guard on the recovery planner (DESIGN.md
// "Failure recovery"): on the sim-faults shape the whole system does at most
// 1.45× the sequential work, and the redundant expansions of subproblems that
// were complete or in progress at a live process — the collisions of
// uncoordinated recoverers — stay under 0.40 of the tree. A planner that reads
// a prefix window of the complement fails both (1.83 and 0.77; the uniform
// eighth measures ≈ 1.37 and ≈ 0.31). The lost share is printed, not bounded:
// it is the crash schedule's, and no planner moves it. The messages the
// system sends per sequential expansion stay at most 3.36: 3.09 measured with
// a starving probe carrying the table push (σ of the mean 0.10), plus the
// ≈ 2.7σ the work bound keeps; with the push sent beside the probe, as
// before, they were 5.13.
//
// One tree's work ratio has a standard deviation of 0.25–0.3 and a long tail
// (one solve in a hundred does three times the sequential work), so the bounds
// are held on the mean over all three seeds' trees — 72 of them, σ ≈ 0.03:
// the prefix window is a dozen σ away, and a change that merely re-draws the
// runs has about one chance in fifty of landing past a bound, in which case
// raise trees and look at the mean before blaming the planner. -v prints each
// seed. -short runs too few trees for the bounds to mean anything and only
// checks that the ledger adds up.
func TestRedundancyLedger(t *testing.T) {
	trees := 24 // per seed
	if testing.Short() {
		trees = 4
	}
	var all ghostTotals
	for seed := int64(1); seed <= 3; seed++ {
		var sum ghostTotals
		for i := 0; i < trees; i++ {
			tree, cfg := faultsShape(seed, i)
			h := newHarness(cfg, []*spec{{w: treeWorkload(tree)}}, false)
			g := ghostLedger{h: h, expanders: make(map[string][]ghostExpander, tree.Size())}
			h.ghost = g.note
			res := h.run()
			ir := res.Instances[0]
			if !ir.Terminated || !ir.OptimumOK {
				t.Fatalf("seed %d tree %d: terminated=%v optimumOK=%v", seed, i, ir.Terminated, ir.OptimumOK)
			}
			if got := g.known + g.inFlight + g.lost; got != ir.Redundant {
				t.Fatalf("seed %d tree %d: the ledger sorted %d redundant expansions, the run booked %d", seed, i, got, ir.Redundant)
			}
			plans, _ := res.Met.At(0).TotalRecoveries()
			sum.add(ghostTotals{1, tree.Size(), ir.Expanded, int(res.Net.Sent), plans, g.known, g.inFlight, g.lost})
		}
		t.Logf("seed %d: %v", seed, sum)
		all.add(sum)
	}
	t.Logf("seeds 1-3: %v", all)
	if testing.Short() {
		return
	}
	if w := all.workRatio(); w > 1.45 {
		t.Errorf("work_ratio %.3f > 1.45", w)
	}
	if c := all.collided(); c > 0.40 {
		t.Errorf("known + in-progress redundancy is %.2f of the tree, want ≤ 0.40", c)
	}
	if m := all.msgRatio(); m > 3.36 {
		t.Errorf("%.3f messages per sequential expansion, want ≤ 3.36", m)
	}
}

// ghostTotals sums solves: sequential and distributed expansions, recovery
// plans, and the ledger's three counts.
type ghostTotals struct {
	solves, size, expanded, msgs, plans int
	known, inFlight, lost               int
}

func (a *ghostTotals) add(b ghostTotals) {
	a.solves += b.solves
	a.size += b.size
	a.expanded += b.expanded
	a.msgs += b.msgs
	a.plans += b.plans
	a.known += b.known
	a.inFlight += b.inFlight
	a.lost += b.lost
}

func (a ghostTotals) workRatio() float64 { return float64(a.expanded) / float64(a.size) }

// msgRatio is the messages sent per sequential expansion.
func (a ghostTotals) msgRatio() float64 { return float64(a.msgs) / float64(a.size) }

// collided is the known and in-progress redundancy as a share of the tree.
func (a ghostTotals) collided() float64 { return float64(a.known+a.inFlight) / float64(a.size) }

func (a ghostTotals) String() string {
	per := func(n int) float64 { return float64(n) / float64(a.solves) }
	return fmt.Sprintf("mean of %d solves: work_ratio %.3f, %.3f messages per sequential expansion, %.1f plans, redundant known %.0f + in progress %.0f + lost %.0f (collisions %.2f of the tree)",
		a.solves, a.workRatio(), a.msgRatio(), per(a.plans), per(a.known), per(a.inFlight), per(a.lost), a.collided())
}
