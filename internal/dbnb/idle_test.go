package dbnb

import (
	"testing"

	"gossipbnb/internal/code"
)

// TestIdleTimerFollowsWakeAt: every context has exactly one pending driver
// timer — its node holds one kernel handle — and it is due at exactly the
// instant its core asks to be called back: a request's deadline, the end of a
// retry pace, the report check, the table push or a bootstrap retry. A
// crashed or terminated context has none. Checked for every context, joiners
// included, at every expansion anywhere in the run, on the sim-faults shape
// (crashes, restarts, loss, duplication, reordering), the golden chaos
// scenario, a join/crash mix whose joiner crashes and restarts, and joiners
// bootstrapping through §5.2 membership.
func TestIdleTimerFollowsWakeAt(t *testing.T) {
	type run struct {
		name string
		cfg  Config
		w    workload
	}
	var runs []run
	for i := 0; i < 3; i++ {
		tree, cfg := faultsShape(1, i)
		runs = append(runs, run{"sim-faults shape", cfg, treeWorkload(tree)})
	}
	tree, cfg := goldenChaos()
	runs = append(runs, run{"golden chaos", cfg, treeWorkload(tree)})
	runs = append(runs, run{"join/crash mix", Config{
		Procs: 4, Seed: 19, Loss: 0.05, Duplicate: 0.1, RecoveryQuiet: 6,
		Joins:   []Join{{Time: 3, Count: 2}, {Time: 6, Count: 2}},
		Crashes: []Crash{{Time: 5, Node: 1}, {Time: 8, Node: 5, Restart: 12}, {Time: 9, Node: 7}},
	}, treeWorkload(smallTree(31))})
	runs = append(runs, run{"membership joins", Config{
		Procs: 4, Seed: 5, UseMembership: true, RecoveryQuiet: 8,
		Joins: []Join{{Time: 10, Count: 4}},
	}, treeWorkload(churnTree(22))})
	for i, r := range runs {
		h := newHarness(r.cfg, []*spec{{w: r.w}}, false)
		checks, idle := 0, 0
		h.ghost = func(*node, code.Code) {
			for p := 0; p < h.total; p++ {
				for _, n := range h.contexts(p) {
					if n == nil {
						continue // a joiner not spawned yet
					}
					at, pending := n.timer.When()
					checks++
					if n.crashed || n.done {
						if pending {
							t.Fatalf("run %d (%s): at %g context %d (crashed %v, done %v) has a timer pending at %g, want none",
								i, r.name, n.k.Now(), n.id, n.crashed, n.done, at)
						}
						continue
					}
					if want := n.core.WakeAt(); !pending || at != want {
						t.Fatalf("run %d (%s): at %g context %d has its timer at %g (pending %v), want %g",
							i, r.name, n.k.Now(), n.id, at, pending, want)
					}
					if n.idleStart >= 0 {
						idle++
					}
				}
			}
		}
		res := h.run()
		if ir := res.Instances[0]; !ir.Terminated || !ir.OptimumOK {
			t.Fatalf("run %d (%s): terminated=%v optimumOK=%v", i, r.name, ir.Terminated, ir.OptimumOK)
		}
		for p := 0; p < h.total; p++ {
			for _, n := range h.contexts(p) {
				if n == nil {
					continue
				}
				if at, pending := n.timer.When(); pending {
					t.Errorf("run %d (%s): context %d (crashed %v, done %v) ends the run with a timer at %g",
						i, r.name, n.id, n.crashed, n.done, at)
				}
			}
		}
		if idle == 0 {
			t.Fatalf("run %d (%s): no idle context among %d checks", i, r.name, checks)
		}
		t.Logf("run %d (%s): %d checks, %d of an idle context", i, r.name, checks, idle)
	}
}
