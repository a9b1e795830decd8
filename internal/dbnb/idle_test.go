package dbnb

import (
	"math"
	"testing"

	"gossipbnb/internal/code"
)

// TestIdleTimerFollowsWakeAt: every context's one idle timer is armed for
// exactly the instant its core asks to be called back — a request's deadline,
// the end of a retry pace, or never — and a crashed or terminated context has
// none. Checked for every context at every expansion anywhere in the run, on
// the sim-faults shape (crashes, restarts, loss, duplication, reordering) and
// the golden chaos scenario.
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
	for i, r := range runs {
		h := newHarness(r.cfg, []*spec{{w: r.w}}, false)
		checks, armed := 0, 0
		h.ghost = func(*node, code.Code) {
			for p := 0; p < r.cfg.Procs; p++ {
				for _, n := range h.contexts(p) {
					want := math.Inf(1)
					if !n.crashed && !n.done {
						want = n.core.WakeAt()
					}
					if n.idleAt != want {
						t.Fatalf("run %d (%s): at %g context %d (crashed %v, done %v) has its idle timer at %g, want %g",
							i, r.name, n.k.Now(), n.id, n.crashed, n.done, n.idleAt, want)
					}
					checks++
					if !math.IsInf(want, 1) {
						armed++
					}
				}
			}
		}
		res := h.run()
		if ir := res.Instances[0]; !ir.Terminated || !ir.OptimumOK {
			t.Fatalf("run %d (%s): terminated=%v optimumOK=%v", i, r.name, ir.Terminated, ir.OptimumOK)
		}
		if armed == 0 {
			t.Fatalf("run %d (%s): no armed idle timer among %d checks", i, r.name, checks)
		}
		t.Logf("run %d (%s): %d checks, %d of an armed timer", i, r.name, checks, armed)
	}
}
