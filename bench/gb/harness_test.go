package gb

import "testing"

// TestHarnessReachesOptimum drives every workload's harness configuration on
// tiny inputs (a 301-node tree for the replays) to termination at the
// sequential optimum, untraced and traced.
func TestHarnessReachesOptimum(t *testing.T) {
	for _, w := range registry {
		ins := w.Setup(DefaultSeed, TinySizes)
		cfg := w.Harness(ins[0], TinySizes)
		for _, rec := range []*Recorder{nil, NewRecorder()} {
			res := runHarness(cfg, rec, true)
			if !res.OK {
				t.Errorf("%s (traced=%v): harness did not terminate at the optimum: %+v", w.Name, rec != nil, res.Time)
			}
			if res.Expansions == 0 || len(res.Completions) == 0 {
				t.Errorf("%s: nothing expanded or recorded", w.Name)
			}
			if cfg.nodes > 1 && len(res.Messages) == 0 {
				t.Errorf("%s: no messages recorded", w.Name)
			}
		}
	}
}
