package live

import (
	"math/rand"
	"testing"
	"time"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/protocol"
)

// TestLiveReportsPacedOnLiveClock: a live core flushes its work report every
// liveReportBatch contracted codes or once the outbox is a RetryDelay stale —
// not every 8 codes, the simulator's batch — so on a code-driven solve of
// ~28 000 expansions the reports stay a small share of the work. With 3 of 4
// nodes crashing mid-solve, the survivor still reaches the optimum.
func TestLiveReportsPacedOnLiveClock(t *testing.T) {
	q := bnb.RandomQAP(rand.New(rand.NewSource(9)), 8)
	ref := bnb.SolveProblem(q)
	// Four times the default RetryDelay: the stale-outbox flushes come per
	// RetryDelay of wall clock, and under the race detector or on one core an
	// expansion is ten times slower while the clock is not, so at 5 ms those
	// flushes alone come near the bound.
	cfg := Config{
		Nodes: 4, Seed: 9, Select: protocol.DepthFirst, Prune: true,
		RetryDelay: 20 * time.Millisecond, Timeout: 60 * time.Second,
	}

	res := NewProblemClusterRef(q, ref, cfg).Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("fault-free solve failed: %+v", res)
	}
	reports := res.Kinds.Sent[protocol.KindReport]
	perExp := float64(reports) / float64(res.Expanded)
	t.Logf("fault-free: %d reports for %d expansions (%.4f per expansion; sequential %d) in %v",
		reports, res.Expanded, perExp, ref.Expanded, res.Elapsed)
	if perExp > 0.03 {
		t.Errorf("%d work reports for %d expansions = %.4f per expansion, want <= 0.03", reports, res.Expanded, perExp)
	}

	// The crashes land at a quarter, three eighths and half of the
	// sequential expansions, counted as the cluster goes, so they fall
	// mid-solve on a machine of any speed.
	cl := NewProblemClusterRef(q, ref, cfg)
	nodes := cl.nodes
	stop, crashes := make(chan struct{}), make(chan int, 1)
	go func() {
		n := 0
		defer func() { crashes <- n }()
		for i, frac := range []float64{0.25, 0.375, 0.5} {
			for {
				var done int64
				for _, nd := range nodes {
					done += nd.expanded.Load()
				}
				if done >= int64(frac*float64(ref.Expanded)) {
					break
				}
				select {
				case <-stop:
					return
				case <-time.After(100 * time.Microsecond):
				}
			}
			cl.Crash(NodeID(i + 1))
			n++
		}
	}()
	crashed := cl.Run()
	close(stop)
	if n := <-crashes; n != 3 {
		t.Fatalf("the solve ended after %d of its 3 crashes: %+v", n, crashed)
	}
	if !crashed.Terminated || !crashed.OptimumOK {
		t.Fatalf("3 of 4 nodes crashed mid-solve; the survivor failed: %+v", crashed)
	}
	t.Logf("3 of 4 crashed: %d expansions (%.3f of the fault-free run's) in %v",
		crashed.Expanded, float64(crashed.Expanded)/float64(res.Expanded), crashed.Elapsed)
}
