package dbnb

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/btree"
	"gossipbnb/internal/member"
	"gossipbnb/internal/metrics"
	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/protocol"
	"gossipbnb/internal/sim"
)

// rootReports counts the root reports a run sent: the Report messages on the
// wire that no core tallied as a work report — termination broadcasts, their
// forwards, and the answers terminated processes give to work requests.
// (Frontier-report runs only: under DiffGossip work reports are
// DigestReports and every Report on the wire is a root report.)
func rootReports(net nemesis.NetStats, systems ...*metrics.System) int64 {
	n := net.KindSent[protocol.KindReport]
	for _, sys := range systems {
		for i := range sys.Nodes {
			n -= int64(sys.Nodes[i].ReportsSent)
		}
	}
	return n
}

// protocol.Config's report defaults, which a run that leaves ReportFanout and
// ReportBatch unset uses.
const (
	defaultReportFanout = 2
	defaultReportBatch  = 8
)

// TestTerminationTrafficIsLinear: a run whose work is never shared is one
// process solving and procs − 1 starving, so nearly every message of it is
// probing or termination. The detector's broadcast plus ReportFanout forwards
// per learner is (1 + ReportFanout)·(procs − 1) root reports — O(procs), where
// every learner broadcasting again made it procs·(procs − 1). Every starving
// process hears the detector directly, so the last detection trails the first
// by one root report's latency and handling cost, as it did with the echo. The
// ReportFanout processes the detector's last work report went to before the
// detection instant may take that one's handling longer; the work reports the
// detecting eliminations flush never go out (Core.Next), since the root
// report subsumes them.
func TestTerminationTrafficIsLinear(t *testing.T) {
	k := bnb.RandomKnapsack(rand.New(rand.NewSource(1)), 24)
	ref := bnb.SolveProblem(k)
	root := protocol.RootReport(0, 0)
	for _, procs := range []int{1000, 4000} {
		cfg := Config{Procs: procs, Seed: 1, Prune: true, Shards: 1, MinPoolToShare: 1 << 30}
		res := RunProblemRef(k, ref, cfg)
		mustTerminate(t, res)
		if res.Net.Sent > int64(20*procs) {
			t.Errorf("procs=%d: %d messages sent, want at most 20 per process", procs, res.Net.Sent)
		}
		cfg = cfg.withDefaults()
		if got, bound := rootReports(res.Net, res.Met), int64((1+defaultReportFanout)*(procs-1)); got > bound {
			t.Errorf("procs=%d: %d root reports sent, want at most (1 + %d)·(procs − 1) = %d", procs, got, defaultReportFanout, bound)
		}
		lag := cfg.Latency(root.Size()) + commOverhead + contractPerCode
		late := 0
		for _, d := range res.DetectTimes {
			if d-res.FirstDetect > lag+1e-12 {
				late++
			}
		}
		if late > defaultReportFanout {
			t.Errorf("procs=%d: %d detections trail the first by more than one delivered broadcast, %v; only the last work report's %d recipients may",
				procs, late, lag, defaultReportFanout)
		}
		lag += commOverhead + float64(defaultReportBatch)*contractPerCode
		if got := res.Time - res.FirstDetect; got > lag+1e-12 {
			t.Errorf("procs=%d: last detection trails the first by %v, want one delivered broadcast and one work report's handling, %v", procs, got, lag)
		}
	}
}

// TestTerminationSurvivesLossAndCrashes: 24 of 32 processes crash (a third of
// them restart) under 5 % loss, so the single broadcast reaches a survivor
// with probability 0.95 and a detector may die right after it detects. Every
// process alive at the end must still terminate, at the optimum: the
// forwards, the probe-pull answers and complement recovery are the backstop.
func TestTerminationSurvivesLossAndCrashes(t *testing.T) {
	const procs, crashes = 32, 24
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		tree := btree.Random(r, btree.RandomConfig{
			Size:         801,
			Cost:         btree.CostModel{Mean: 0.05, Sigma: 0.5},
			BoundSpread:  2,
			FeasibleProb: 0.1,
		})
		base := Run(tree, Config{Procs: procs, Seed: seed})
		mustTerminate(t, base)
		cfg := Config{Procs: procs, Seed: seed, Loss: 0.05, RecoveryQuiet: 4, MaxTime: 1e5}
		for i, p := range r.Perm(procs)[:crashes] {
			cr := Crash{Time: r.Float64() * 1.5 * base.Time, Node: p}
			if i%3 == 0 {
				cr.Restart = cr.Time + r.Float64()*base.Time
			}
			cfg.Crashes = append(cfg.Crashes, cr)
		}
		for _, S := range []int{0, 2} {
			cfg.Shards = S
			name := fmt.Sprintf("seed=%d shards=%d", seed, S)
			res := Run(tree, cfg)
			// Terminated means every process alive at the end detected.
			if !res.Terminated || !res.OptimumOK {
				t.Errorf("%s: terminated=%v optimumOK=%v", name, res.Terminated, res.OptimumOK)
			}
			survivors := 0
			for _, d := range res.DetectTimes {
				if !math.IsNaN(d) {
					survivors++
				}
			}
			if survivors < procs-crashes {
				t.Errorf("%s: %d survivors, want at least %d", name, survivors, procs-crashes)
			}
		}
	}
}

// TestTerminationBroadcastFollowsMembershipView: under §5.2 membership a
// context's view is what its detector made it, not the static ring. Two
// processes crash early and every survivor excludes them; from then on no
// message — the detector's root-report broadcast included — may be addressed
// to them, except the detector's own slow Hello probes of the members it
// excluded. The ring-range fast path would write to the Procs − 3 ring
// positions after the detector, whoever lives there, and at most one window
// of that length misses both dead processes: not the first detector's, or
// the seed would have to change.
func TestTerminationBroadcastFollowsMembershipView(t *testing.T) {
	// Heartbeat rounds, and with them the probes, fire on whole seconds and
	// land within milliseconds: halfway between two, none is in flight.
	const procs, settled = 8, 25.5
	tree := btree.Random(rand.New(rand.NewSource(3)), btree.RandomConfig{
		Size:         1201,
		Cost:         btree.CostModel{Mean: 0.2, Sigma: 0.4},
		BoundSpread:  1,
		FeasibleProb: 0.1,
	})
	h := newHarness(Config{
		Procs: procs, Seed: 3, Shards: 4, UseMembership: true, RecoveryQuiet: 5,
		Crashes: []Crash{{Time: 1, Node: 2}, {Time: 1, Node: 5}},
	}, []*spec{{w: treeWorkload(tree)}}, false)
	var falseExclusions atomic.Int64 // the shards run in parallel
	h.onDetect = func(_ sim.NodeID, peer protocol.NodeID, k member.Transition) {
		if k == member.Excluded && peer != 2 && peer != 5 {
			falseExclusions.Add(1)
		}
	}

	// ExcludeAfter is 10 s from the last evidence a member has of a peer,
	// and the victims' last heartbeats are themselves still spreading when
	// they die: by now every live view is the six survivors.
	h.mesh.Run(settled)
	for _, n := range h.nodes {
		if n.crashed {
			continue
		}
		if n.done {
			t.Fatalf("process %d terminated before the views settled; the scenario pins nothing", n.id)
		}
		if v := h.agents[n.id].m.Peers(); len(v) != procs-3 {
			t.Fatalf("process %d's view at t = %v is %v, want the %d other survivors", n.id, settled, v, procs-3)
		}
	}
	before := h.mesh.Stats()

	res := h.run()
	if !res.Terminated || !res.Instances[0].OptimumOK {
		t.Fatalf("terminated=%v optimumOK=%v", res.Terminated, res.Instances[0].OptimumOK)
	}
	if res.Shards != 4 {
		t.Errorf("membership run used %d shards, want 4", res.Shards)
	}
	if n := falseExclusions.Load(); n != 0 {
		t.Fatalf("%d exclusions of live processes: their probes would go to live ones", n)
	}
	// With no live process excluded and nobody joining, every Hello sent
	// after the views settled is a probe of a dead process.
	probes := res.Net.KindSent[protocol.KindHello] - before.KindSent[protocol.KindHello]
	if got := res.Net.ToDead - before.ToDead; got != probes {
		t.Errorf("%d messages addressed to processes no view contains, %d of them probes", got, probes)
	}
}
