package dbnb

import (
	"math"
	"math/rand"
	"testing"

	"gossipbnb/internal/bnb"
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

// TestMultiInstanceTerminationBroadcastIsGrouped: the context that detects
// its instance's termination broadcasts the root report to all 63 peers
// (§5.4) as one ring-range group event, tagged or not, and each of the 63
// contexts it tells forwards the report to ReportFanout members — where every
// one of them used to broadcast again, 64·63 root reports per instance. So
// per instance and detector at most (1 + ReportFanout)·(procs − 1) root
// reports travel; each instance here has exactly one detector, so the bound
// is met with equality but for the work requests that reach a context of a
// finished instance, which answers with the root report instead of a deny
// (lateProbes). What happened up to the first detection — when it came, what
// had been expanded — was captured on the commit before the echo went and
// must not move; front coding (smaller reports, so earlier ones) re-drew the
// second instance's first detection by 0.6 ms, the bytes and the event count,
// nothing else. The event count fell again, 7418 → 7292, when a terminating
// context began to cancel its pending retry pace instead of letting it fire
// as a no-op. Table pushes as tries (smaller again) re-drew the second
// instance's first detection by another 0.05 ms, 85 109 → 68 900 bytes and
// 7292 → 7244 events, and one work request that a deny used to answer now
// reaches a context that has already detected: lateProbes 0 → 1, the same
// 2415 messages. Reports as tries took 68 900 → 68 056 bytes and 7244 → 7243
// events, the same 2415 messages and first detections.
func TestMultiInstanceTerminationBroadcastIsGrouped(t *testing.T) {
	const (
		procs = 64
		sent  = 2415
		bytes = 68056
		// 7542 with the two broadcasts as 63 deliveries each, 7418 with
		// retry paces left to fire after termination, 7292 with table
		// pushes front-coded, 7244 with reports front-coded.
		events     = 7243
		lateProbes = 1
	)
	want := []struct {
		firstDetect      float64
		expanded, unique int
	}{{1.7117170312499987, 173, 173}, {13.028755000000002, 681, 681}}

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
	fanout := defaultReportFanout
	if got, bound := rootReports(res.Net, res.Met.Systems...), int64(len(res.Instances)*(1+fanout)*(procs-1)); got != bound+lateProbes {
		t.Errorf("root reports sent = %d, want %d + %d: one detector per instance, (1 + %d)·(%d − 1) each, and the late probes' answers",
			got, bound, lateProbes, fanout, procs)
	}
	if res.Events != events {
		t.Errorf("Events = %d, want %d (one group event per broadcast)", res.Events, events)
	}
}

func TestRunInstancesRejectsUnsupported(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunInstances accepted UseMembership")
		}
	}()
	RunInstances(Config{
		Procs:         4,
		UseMembership: true,
		Instances:     fourInstances()[:1],
	})
}
