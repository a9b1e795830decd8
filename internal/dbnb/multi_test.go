package dbnb

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/protocol"
)

// fourInstances is the canonical concurrent workload: four staggered
// knapsacks of different sizes and seeds.
func fourInstances() []Instance {
	return []Instance{
		{Problem: bnb.RandomKnapsack(rand.New(rand.NewSource(21)), 12), Seed: 1, StartTime: 0},
		{Problem: bnb.RandomKnapsack(rand.New(rand.NewSource(22)), 14), Seed: 2, StartTime: 5},
		{Problem: bnb.RandomKnapsack(rand.New(rand.NewSource(23)), 13), Seed: 3, StartTime: 10},
		{Problem: bnb.RandomKnapsack(rand.New(rand.NewSource(24)), 12), Seed: 4, StartTime: 15},
	}
}

func TestMultiInstanceConcurrentOptima(t *testing.T) {
	res := RunInstances(Config{
		Procs:     8,
		Seed:      7,
		Prune:     true,
		Select:    DepthFirst,
		Instances: fourInstances(),
	})
	if !res.Terminated {
		t.Fatal("not all instances terminated")
	}
	if len(res.Instances) != 4 {
		t.Fatalf("got %d instance results", len(res.Instances))
	}
	for _, ir := range res.Instances {
		if !ir.OptimumOK {
			t.Errorf("instance %d: optimum %g, sequential %g", ir.ID, ir.Optimum, ir.SeqOptimum)
		}
		if ir.Expanded < ir.Unique || ir.Unique == 0 {
			t.Errorf("instance %d: expanded %d < unique %d", ir.ID, ir.Expanded, ir.Unique)
		}
		if ir.Time < ir.Start {
			t.Errorf("instance %d finished at %g before its start %g", ir.ID, ir.Time, ir.Start)
		}
		if ir.Work <= 0 {
			t.Errorf("instance %d: no work recorded", ir.ID)
		}
	}
	// The instance metrics dimension must attribute expansions per tenant.
	for i, ir := range res.Instances {
		sum := 0
		for _, n := range res.Met.At(i).Nodes {
			sum += n.Expanded
		}
		if sum != ir.Expanded {
			t.Errorf("instance %d: metrics expansions %d != result %d", ir.ID, sum, ir.Expanded)
		}
	}
	// Staggered starts really overlap: a later instance must detect after an
	// earlier one starts solving (otherwise this test is k sequential runs).
	if res.Instances[1].FirstDetect <= res.Instances[1].Start {
		t.Errorf("instance 2 finished before it started: %g", res.Instances[1].FirstDetect)
	}
}

// TestMultiInstanceDeterminism pins (cfg, seed) determinism of the full
// per-instance result set.
func TestMultiInstanceDeterminism(t *testing.T) {
	cfg := Config{Procs: 6, Seed: 11, Prune: true, Select: DepthFirst, Instances: fourInstances()[:2]}
	a := RunInstances(cfg)
	b := RunInstances(cfg)
	for i := range a.Instances {
		if a.Instances[i].Time != b.Instances[i].Time ||
			a.Instances[i].Expanded != b.Instances[i].Expanded ||
			a.Instances[i].Optimum != b.Instances[i].Optimum {
			t.Fatalf("instance %d not deterministic:\n a=%+v\n b=%+v", i+1, a.Instances[i], b.Instances[i])
		}
	}
	if a.Events != b.Events {
		t.Fatalf("event counts differ: %d vs %d", a.Events, b.Events)
	}
}

// TestMultiInstanceShardInvariance: the same run on 1, 2, and 4 shards must
// produce identical per-instance trajectories (detection times, expansion
// counts, optima) — the multi driver uses the same wake + canonical batch
// discipline as the single-instance sharded path.
func TestMultiInstanceShardInvariance(t *testing.T) {
	base := Config{Procs: 8, Seed: 13, Prune: true, Select: DepthFirst, Instances: fourInstances()[:3]}
	ref := RunInstances(withShardsM(base, 1))
	for _, s := range []int{2, 4} {
		got := RunInstances(withShardsM(base, s))
		for i := range ref.Instances {
			r, g := ref.Instances[i], got.Instances[i]
			if r.Time != g.Time || r.Expanded != g.Expanded || r.Optimum != g.Optimum || r.Unique != g.Unique {
				t.Errorf("shards=%d instance %d diverged:\n ref=%+v\n got=%+v", s, i+1, r, g)
			}
		}
	}
}

func withShardsM(c Config, s int) Config {
	c.Shards = s
	return c
}

// TestMultiInstanceChaosIsolation is the chaos-tier isolation guarantee: one
// instance's processes crash (and restart) while another instance must be
// byte-for-byte unaffected — same optimum, same expansion counts, same
// termination time — because instance contexts share nothing but the
// (deterministic-latency) network.
func TestMultiInstanceChaosIsolation(t *testing.T) {
	insts := fourInstances()[:2]
	base := Config{Procs: 6, Seed: 17, Prune: true, Select: DepthFirst, Instances: insts}

	quiet := RunInstances(base)
	if !quiet.Terminated {
		t.Fatal("quiet run did not terminate")
	}

	// Crash instance 1's context on three processes mid-solve; restart one.
	chaos := base
	chaos.Crashes = []Crash{
		{Time: 2, Node: 1, Instance: 1},
		{Time: 3, Node: 2, Instance: 1, Restart: 9},
		{Time: 4, Node: 4, Instance: 1},
	}
	hit := RunInstances(chaos)

	// Instance 1 must still solve correctly despite its failures.
	if !hit.Instances[0].Terminated || !hit.Instances[0].OptimumOK {
		t.Fatalf("crashed instance did not recover: %+v", hit.Instances[0])
	}
	// Instance 2 must be exactly unaffected.
	q, h := quiet.Instances[1], hit.Instances[1]
	if q.Optimum != h.Optimum {
		t.Errorf("bystander optimum changed: %g -> %g", q.Optimum, h.Optimum)
	}
	if q.Expanded != h.Expanded || q.Unique != h.Unique {
		t.Errorf("bystander expansions changed: %d/%d -> %d/%d", q.Expanded, q.Unique, h.Expanded, h.Unique)
	}
	if q.Time != h.Time || q.FirstDetect != h.FirstDetect {
		t.Errorf("bystander termination time changed: %g/%g -> %g/%g", q.FirstDetect, q.Time, h.FirstDetect, h.Time)
	}
	for i := range q.DetectTimes {
		if q.DetectTimes[i] != h.DetectTimes[i] {
			t.Errorf("bystander process %d detection changed: %g -> %g", i, q.DetectTimes[i], h.DetectTimes[i])
		}
	}
}

// TestMultiInstanceWholeProcessCrash: Instance 0 in a Crash fails the whole
// process — both instances lose that context (NaN detection) yet both still
// solve on the survivors.
func TestMultiInstanceWholeProcessCrash(t *testing.T) {
	cfg := Config{
		Procs:     6,
		Seed:      19,
		Prune:     true,
		Select:    DepthFirst,
		Instances: fourInstances()[:2],
		Crashes:   []Crash{{Time: 2, Node: 3}},
	}
	res := RunInstances(cfg)
	if !res.Terminated {
		t.Fatal("run did not terminate")
	}
	for _, ir := range res.Instances {
		if !ir.OptimumOK {
			t.Errorf("instance %d: optimum %g, want %g", ir.ID, ir.Optimum, ir.SeqOptimum)
		}
		if !math.IsNaN(ir.DetectTimes[3]) {
			t.Errorf("instance %d: crashed process detected at %g, want NaN", ir.ID, ir.DetectTimes[3])
		}
	}
}

// TestMultiInstanceLateSubmission: an instance submitted long after the first
// finished still solves — reaped instances must not wedge the cluster.
func TestMultiInstanceLateSubmission(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	cfg := Config{
		Procs:  4,
		Seed:   23,
		Prune:  true,
		Select: DepthFirst,
		Instances: []Instance{
			{Problem: bnb.RandomKnapsack(r, 12), Seed: 1, StartTime: 0},
			{Problem: bnb.RandomKnapsack(r, 12), Seed: 2, StartTime: 600},
		},
	}
	res := RunInstances(cfg)
	if !res.Terminated {
		t.Fatal("run did not terminate")
	}
	for _, ir := range res.Instances {
		if !ir.OptimumOK {
			t.Errorf("instance %d: optimum %g, want %g", ir.ID, ir.Optimum, ir.SeqOptimum)
		}
	}
	if res.Instances[1].FirstDetect < 600 {
		t.Errorf("late instance detected at %g, before its submission", res.Instances[1].FirstDetect)
	}
}

// TestMultiInstanceTerminationBroadcastIsGrouped: each context that detects
// its instance's termination broadcasts the root report to all 63 peers
// (§5.4) as one ring-range group event, tagged or not, and each context it
// tells forwards the report to ReportFanout members — where every one of them
// used to broadcast again, 64·63 root reports per instance. So an instance
// with d detectors sends d·(procs − 1) + (procs − d)·ReportFanout root
// reports, but for the work requests that reach a context whose table is
// complete, which answers with the root report instead of a deny
// (lateProbes). What happened up to the first detection — when it came, what
// had been expanded — was captured on the commit before the echo went, and
// moved only with the protocol: front coding (smaller reports, so earlier
// ones) re-drew the second instance's first detection by 0.6 ms, the bytes and
// the event count, nothing else. The event count fell again, 7418 → 7292,
// when a terminating context began to cancel its pending retry pace instead
// of letting it fire as a no-op. Table pushes as tries (smaller again)
// re-drew the second instance's first detection by another 0.05 ms, 85 109 →
// 68 900 bytes and 7292 → 7244 events, and one work request that a deny used
// to answer now reaches a context that has already detected: lateProbes
// 0 → 1, the same 2415 messages. Reports as tries took 68 900 → 68 056 bytes
// and 7244 → 7243 events, the same 2415 messages and first detections. A
// starving probe that carries the table push re-drew the whole run: first
// detections 1.712 → 5.019 and 13.029 → 14.033, expansions 173 → 221 and
// 681 → 952, detectors 1 → 2 and 1 → 5 (several contexts completed their
// tables from partial information before a broadcast reached them),
// lateProbes 1 → 19, 2415 → 2827 messages, 68 056 → 95 907 bytes and 7243 →
// 8612 events. Over run seeds 1–30 the same two instances detect about as
// early as before (means 3.93 → 3.97 and 12.41 → 12.14) on fewer messages
// (2 927 → 2 169).
func TestMultiInstanceTerminationBroadcastIsGrouped(t *testing.T) {
	const (
		procs = 64
		sent  = 2827
		bytes = 95907
		// 7542 with the two broadcasts as 63 deliveries each, 7418 with
		// retry paces left to fire after termination, 7292 with table
		// pushes front-coded, 7244 with reports front-coded, 7243 with
		// reports as tries.
		events     = 8612
		lateProbes = 19
	)
	want := []struct {
		firstDetect      float64
		expanded, unique int
		detectors        int
	}{{5.0189, 221, 221, 2}, {14.0333, 952, 952, 5}}

	cfg := Config{Procs: procs, Seed: 29, Prune: true, Select: DepthFirst, Shards: 1, Instances: fourInstances()[:2]}
	res := RunInstances(cfg)
	if !res.Terminated {
		t.Fatal("run did not terminate")
	}
	if res.Net.Sent != sent || res.Net.Bytes != bytes {
		t.Errorf("network moved: %d msgs / %d bytes, want %d / %d", res.Net.Sent, res.Net.Bytes, sent, bytes)
	}
	for i, ir := range res.Instances {
		if w := want[i]; ir.FirstDetect != w.firstDetect || ir.Expanded != w.expanded || ir.Unique != w.unique {
			t.Errorf("instance %d moved: first detection %v expanded %d unique %d, want %+v", ir.ID, ir.FirstDetect, ir.Expanded, ir.Unique, w)
		}
	}
	fanout, bound := defaultReportFanout, int64(0)
	for _, w := range want {
		bound += int64(w.detectors*(procs-1) + (procs-w.detectors)*fanout)
	}
	if got := rootReports(res.Net, res.Met.Systems...); got != bound+lateProbes {
		t.Errorf("root reports sent = %d, want %d + %d: d·(%d − 1) + (%d − d)·%d per instance of d detectors, and the late probes' answers",
			got, bound, lateProbes, procs, procs, fanout)
	}
	if res.Events != events {
		t.Errorf("Events = %d, want %d (one group event per broadcast)", res.Events, events)
	}
}

// TestRunInstancesWithMembership: every process runs one §5.2 member, whose
// view all its instances share, through a whole-process crash-restart. Each
// instance still terminates at its own optimum, and the run is the same at
// one shard and at four.
func TestRunInstancesWithMembership(t *testing.T) {
	var want []string
	for _, S := range []int{1, 4} {
		res := RunInstances(Config{Procs: 8, Seed: 13, Prune: true, Select: DepthFirst, Shards: S,
			UseMembership: true, Instances: fourInstances(),
			Crashes: []Crash{{Time: 3, Node: 5, Restart: 9}}})
		if !res.Terminated || res.Shards != S {
			t.Fatalf("Shards=%d: terminated=%v on %d shards", S, res.Terminated, res.Shards)
		}
		for _, ir := range res.Instances {
			if !ir.OptimumOK {
				t.Errorf("Shards=%d: instance %d optimum %g, want %g", S, ir.ID, ir.Optimum, ir.SeqOptimum)
			}
		}
		if res.Net.KindSent[protocol.KindHeartbeat] == 0 {
			t.Fatalf("Shards=%d: no heartbeat was sent", S)
		}
		got := multiFingerprint(res)
		if S == 1 {
			want = got
			continue
		}
		checkMultiFingerprint(t, fmt.Sprintf("membership Shards=%d vs 1", S), got, want)
	}
}

func TestRunInstancesRejectsUnsupported(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunInstances accepted Joins")
		}
	}()
	RunInstances(Config{
		Procs:     4,
		Joins:     []Join{{Time: 1, Count: 1}},
		Instances: fourInstances()[:1],
	})
}

// TestRunInstancesReferenceOutlastsRun: RunInstances solves its sequential
// references on a goroutine beside the simulation. Here the run stops at
// MaxTime long before the QAP's reference (tens of milliseconds of
// expansions, solved first) is done, and the knapsack's is solved after it;
// the result must still carry both exactly as bnb.SolveProblem finds them,
// and judge OptimumOK against them: the knapsack terminated on its optimum,
// the QAP did not terminate.
func TestRunInstancesReferenceOutlastsRun(t *testing.T) {
	qap := bnb.RandomQAP(rand.New(rand.NewSource(1)), 8)
	ks := fourInstances()[0].Problem
	res := RunInstances(Config{
		Procs: 4, Seed: 5, Prune: true, Select: DepthFirst, MaxTime: 5,
		Instances: []Instance{{Problem: qap, Seed: 1}, {Problem: ks, Seed: 2}},
	})
	for i, p := range []bnb.Problem{qap, ks} {
		ir, ref := res.Instances[i], bnb.SolveProblem(p)
		if ir.SeqOptimum != ref.Value || ir.SeqExpanded != ref.Expanded {
			t.Errorf("instance %d: reference %g in %d expansions, bnb.SolveProblem %g in %d",
				ir.ID, ir.SeqOptimum, ir.SeqExpanded, ref.Value, ref.Expanded)
		}
		if want := ir.Terminated && ir.Optimum == ref.Value; ir.OptimumOK != want {
			t.Errorf("instance %d: OptimumOK %v, want %v (terminated %v, optimum %g)",
				ir.ID, ir.OptimumOK, want, ir.Terminated, ir.Optimum)
		}
	}
	if q, k := res.Instances[0], res.Instances[1]; q.Terminated || !k.OptimumOK {
		t.Errorf("want the QAP cut off at MaxTime and the knapsack solved: QAP terminated %v, knapsack OptimumOK %v",
			q.Terminated, k.OptimumOK)
	}
}

// TestRunInstancesMixedProblems runs a QAP and a knapsack on two shards while
// their references are solved beside the run. Under -race it shows that a
// bnb.Problem is only read while the reference solve and the processes'
// expanders share it.
func TestRunInstancesMixedProblems(t *testing.T) {
	res := RunInstances(Config{
		Procs: 6, Seed: 3, Prune: true, Select: DepthFirst, Shards: 2,
		Instances: []Instance{
			{Problem: bnb.RandomQAP(rand.New(rand.NewSource(2)), 7), Seed: 1},
			{Problem: bnb.RandomKnapsack(rand.New(rand.NewSource(25)), 14), Seed: 2, StartTime: 1},
		},
	})
	for _, ir := range res.Instances {
		if !ir.OptimumOK || ir.SeqExpanded == 0 {
			t.Errorf("instance %d: terminated %v, optimum %g, reference %g in %d expansions",
				ir.ID, ir.Terminated, ir.Optimum, ir.SeqOptimum, ir.SeqExpanded)
		}
	}
}

// rootPanics is a problem whose every solve, sequential or distributed,
// panics at its root.
type rootPanics struct{}

func (rootPanics) Root() bnb.Subproblem { panic("rootPanics: no root") }

// settledGoroutines counts goroutines once those that are only finishing —
// a joined goroutine past its last statement, a previous test's mesh
// workers — have exited: a hundred yields, far shorter than any reference
// solve.
func settledGoroutines() int {
	for range 100 {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// TestRunInstancesLeavesNoGoroutine: RunInstances joins its reference
// goroutine on every return, a panic included, and re-raises a panic the
// reference met. Every run ends long before its QAP reference, solved first,
// is done, so a goroutine left running would still be counted: the first at
// MaxTime; the second when the simulation panics at the root of its second
// instance, which the reference goroutine meets after the QAP's; the third
// at MaxTime, before that instance is submitted, so only the reference
// panics.
func TestRunInstancesLeavesNoGoroutine(t *testing.T) {
	qap := Instance{Problem: bnb.RandomQAP(rand.New(rand.NewSource(1)), 8), Seed: 1}
	bad := Instance{Problem: rootPanics{}, Seed: 2}
	late := bad
	late.StartTime = 100
	base := settledGoroutines()
	for i, ins := range [][]Instance{{qap}, {qap, bad}, {qap, late}} {
		func() {
			defer func() {
				if r := recover(); (i > 0) != (r == "rootPanics: no root") {
					t.Errorf("run %d recovered %v", i, r)
				}
			}()
			RunInstances(Config{Procs: 4, Seed: 5, Prune: true, Select: DepthFirst, MaxTime: 5, Instances: ins})
		}()
	}
	if n := settledGoroutines(); n != base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after RunInstances, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}
