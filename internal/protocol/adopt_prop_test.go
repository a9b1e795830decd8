package protocol

import (
	"math/rand"
	"testing"

	"gossipbnb/internal/code"
)

// randomRecoveryEnv builds a core whose table holds a random part of a
// depth-7 fakeTree — leaves and whole subtrees — and whose pool holds a few
// random problems, some of them regions of the complement a plan may draw.
func randomRecoveryEnv(t *testing.T, r *rand.Rand, leaves []code.Code) *env {
	e := newEnv(t, 7, Config{Prune: r.Intn(2) == 0}, []NodeID{1})
	e.core.d.Rand = r.Intn
	for _, c := range leaves {
		switch r.Intn(16) {
		case 0, 1, 2, 3, 4:
			e.core.Table().Insert(c)
		case 5:
			e.core.Table().Insert(c[:len(c)-1-r.Intn(3)]) // a subtree of 2 to 8 leaves
		}
	}
	for k := r.Intn(4); k > 0; k-- {
		var c code.Code
		if gaps := e.core.Table().Complement(0); len(gaps) > 0 && r.Intn(2) == 0 {
			c = gaps[r.Intn(len(gaps))]
		} else {
			l := leaves[r.Intn(len(leaves))]
			c = l[:r.Intn(len(l)+1)]
		}
		if it, ok := e.tree.Locate(c); ok {
			e.core.pool.push(it)
		}
	}
	return e
}

// poolCount counts the pooled problems by code.
func poolCount(c *Core) map[string]int {
	m := map[string]int{}
	for _, it := range c.pool.items {
		m[it.Code.Key()]++
	}
	return m
}

// adoptChecked runs Adopt and returns how many codes it pooled and how many
// of those the local table already knew something about: a completion at,
// above or below the code.
func adoptChecked(c *Core, plan []code.Code) (pooled, known int) {
	before := poolCount(c)
	c.Adopt(plan)
	for key, n := range poolCount(c) {
		if n == before[key] {
			continue
		}
		pooled++
		cd, _, _ := code.Decode([]byte(key))
		if sub, _ := c.Table().Subtree(cd, 0); sub.Len() > 0 {
			known++
		}
	}
	return pooled, known
}

// TestPropAdoptPoolsOnlyComplement is the safety precondition of complement
// recovery (DESIGN.md "Why one survivor finishes with the optimum"): every
// code Adopt pools is a region the local table knows nothing about — no
// completion at it, above it or below it — so recovery never re-creates work
// the table already holds. Random tables, pools and PlanRecovery plans.
func TestPropAdoptPoolsOnlyComplement(t *testing.T) {
	leaves := fakeLeaves(7)
	t.Run("PlanThenAdopt", func(t *testing.T) {
		total := 0
		for seed := int64(0); seed < 300; seed++ {
			r := rand.New(rand.NewSource(seed))
			e := randomRecoveryEnv(t, r, leaves)
			pooled, known := adoptChecked(e.core, e.core.PlanRecovery())
			if known > 0 {
				t.Fatalf("seed %d: %d of the %d codes Adopt pooled overlap completions in the table", seed, known, pooled)
			}
			total += pooled
		}
		if total < 300 {
			t.Fatalf("Adopt pooled %d codes over 300 plans: the scenario no longer recovers", total)
		}
	})
	// A table push merged between PlanRecovery and Adopt can complete part of
	// a planned region. Adopt refuses such a region (Table.Overlaps: a
	// completion at, above or below it) rather than pool it whole, which
	// would redo the path down to the known part. No driver lets a merge
	// land there today — the simulator queues deliveries while a process
	// scans its table for the plan, and the live runtime adopts at once —
	// but a driver that interleaves freely (a schedule explorer) would.
	t.Run("MergeBetweenPlanAndAdopt", func(t *testing.T) {
		pooled, partial := 0, 0
		for seed := int64(0); seed < 300; seed++ {
			r := rand.New(rand.NewSource(seed))
			e := randomRecoveryEnv(t, r, leaves)
			plan := e.core.PlanRecovery()
			peer := newEnv(t, 7, Config{}, []NodeID{0})
			for _, c := range leaves {
				if r.Intn(2) == 0 {
					peer.core.Table().Insert(c)
				}
			}
			peer.core.SendTable(0)
			for _, s := range peer.snd.take() {
				e.core.HandleMessage(1, s.m)
			}
			for _, c := range plan {
				if tb := e.core.Table(); tb.Overlaps(c) && !tb.Contains(c) {
					partial++ // completions below it only: what Contains let through
				}
			}
			p, k := adoptChecked(e.core, plan)
			if k > 0 {
				t.Fatalf("seed %d: %d of the %d codes Adopt pooled overlap completions merged after the plan", seed, k, p)
			}
			pooled += p
		}
		t.Logf("Adopt pooled %d codes and refused %d planned ones that a merge completed in part", pooled, partial)
		if partial == 0 || pooled == 0 {
			t.Fatalf("%d planned codes were completed in part by the merge and %d were pooled: the scenario no longer covers the race", partial, pooled)
		}
	})
}
