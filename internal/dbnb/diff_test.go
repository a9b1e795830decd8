package dbnb

// System-level tests for anti-entropy diff gossip (ISSUE 7). The protocol
// unit tests pin the walk mechanics; these pin the end-to-end claims: the
// mode changes WIRE COST, never the COMPUTATION — same optimum, same
// expansion parity, and a steady-state report-byte reduction on the seeded
// Table-1 workload the acceptance criteria name. Test names carry
// "DiffGossip" so CI's chaos and race filters (-run '...|Digest|Diff')
// exercise this path under -race and adversarial delivery.

import (
	"testing"

	"gossipbnb/internal/btree"
	"gossipbnb/internal/protocol"
)

// reportPathBytes sums the wire bytes of every message kind that exists to
// propagate completion state: legacy reports and full-table pushes, plus —
// in diff mode — digest reports and the subtree walk traffic. Work-stealing
// kinds (request/grant/deny) are excluded: both modes need them and their
// volume is a function of starvation, not of the gossip encoding.
func reportPathBytes(res Result) int64 {
	return res.Net.KindBytes[protocol.KindReport] +
		res.Net.KindBytes[protocol.KindTable] +
		res.Net.KindBytes[protocol.KindDigestReport] +
		res.Net.KindBytes[protocol.KindSubtreeRequest] +
		res.Net.KindBytes[protocol.KindSubtreeReply]
}

// TestDiffGossipParityTable1 is the acceptance run: the seeded Table-1
// workload (8001 nodes, 100 processes) in both modes. Diff gossip must
// preserve the computation — termination, exact optimum, identical expansion
// count — while cutting steady-state completion-propagation bytes at least
// 1.1× (measured 2.04×; the slack absorbs tuning drift, not regressions). The
// gap was ≥ 5× while a frontier push spelled every code out from the root;
// front coding cut the frontier side by two thirds and the digest side, whose
// deltas are a few codes each, by far less (2.9× measured, 2× floor); a table
// push that travels as its trie cut the frontier side again, by 46 %, and the
// digest side, which sends no table push, not at all (1.56×). Reports and leaf
// subtree replies that travel as tries too cut the frontier side by 1.4 %
// (2 925 590 → 2 885 776 bytes) and the digest side by 25 % (1 870 485 →
// 1 411 843), whose subtree replies are most of it.
func TestDiffGossipParityTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Table-1 runs")
	}
	tree, cfg := goldenTable1()
	leg := Run(tree, cfg)
	cfg.DiffGossip = true
	dif := Run(tree, cfg)

	for _, r := range []struct {
		name string
		res  Result
	}{{"legacy", leg}, {"diff", dif}} {
		if !r.res.Terminated || !r.res.OptimumOK {
			t.Fatalf("%s: terminated=%v optimumOK=%v optimum=%g",
				r.name, r.res.Terminated, r.res.OptimumOK, r.res.Optimum)
		}
	}
	if leg.Expanded != dif.Expanded {
		t.Errorf("expansion parity broken: legacy %d vs diff %d",
			leg.Expanded, dif.Expanded)
	}
	// Legacy mode must not leak any diff-gossip traffic: the new kinds are
	// strictly opt-in, so recorded baselines stay comparable.
	for _, k := range []byte{protocol.KindDigestReport, protocol.KindSubtreeRequest, protocol.KindSubtreeReply} {
		if n := leg.Net.KindBytes[k]; n != 0 {
			t.Errorf("legacy run sent %d bytes of %s traffic", n, protocol.KindName(k))
		}
	}
	repLeg, repDif := reportPathBytes(leg), reportPathBytes(dif)
	if repDif == 0 {
		t.Fatal("diff run reported zero report-path bytes")
	}
	t.Logf("report-path bytes: legacy=%d diff=%d ratio=%.2f (total %d vs %d, time %.1f vs %.1f)",
		repLeg, repDif, float64(repLeg)/float64(repDif),
		leg.Net.Bytes, dif.Net.Bytes, leg.Time, dif.Time)
	if ratio := float64(repLeg) / float64(repDif); ratio < 1.1 {
		t.Errorf("report-path bytes ratio = %.2f (legacy %d / diff %d), want >= 1.1",
			ratio, repLeg, repDif)
	}
	// Diff mode trades a modest serial-time slowdown (extra round trips on
	// the walk path) for the byte reduction; it must stay modest.
	if dif.Time > 1.25*leg.Time {
		t.Errorf("diff gossip slowed the run %0.1f -> %0.1f (>25%%)", leg.Time, dif.Time)
	}
}

// TestDiffGossipChaosSoak mirrors the legacy dup/reorder soak with diff
// gossip on: digests ride the same lossy, duplicating, reordering network
// as everything else, and a stale digest must only ever cost extra walk
// traffic — never a missed completion or a wrong optimum.
func TestDiffGossipChaosSoak(t *testing.T) {
	tr := btree.Tiny(21)
	for seed := int64(0); seed < 50; seed++ {
		res := Run(tr, Config{
			Procs: 3, Seed: seed, RecoveryQuiet: 3,
			DiffGossip: true,
			Duplicate:  0.2, Reorder: 0.3,
		})
		if !res.Terminated || !res.OptimumOK {
			t.Fatalf("seed %d: %+v", seed, res)
		}
		if res.Net.Duplicated == 0 || res.Net.Reordered == 0 {
			t.Fatalf("seed %d: chaos knobs had no effect: %+v", seed, res.Net)
		}
	}
}

// TestDiffGossipChaosCrossProduct sweeps the full fault surface — restart,
// duplication, reordering, stale replay, loss, and all at once — in diff
// mode. The restart cells are the ones that matter most: a rejoining
// process holds an empty table, and the bootstrap fallback (a Full root
// request answered by the whole frontier) must rebuild it even when the
// digests that triggered it were duplicated, replayed, or lost.
func TestDiffGossipChaosCrossProduct(t *testing.T) {
	tr := btree.Tiny(22)
	base := Run(tr, Config{Procs: 4, Seed: 0, RecoveryQuiet: 3, DiffGossip: true})
	if !base.Terminated {
		t.Fatal("baseline did not terminate")
	}
	half := base.Time / 2
	scenarios := []struct {
		name string
		mut  func(*Config)
	}{
		{"restart", func(c *Config) {
			c.Crashes = []Crash{{Time: half / 2, Node: 1, Restart: half}}
		}},
		{"dup", func(c *Config) { c.Duplicate = 0.25 }},
		{"reorder", func(c *Config) { c.Reorder = 0.4 }},
		{"replay", func(c *Config) { c.Replay = 0.1; c.ReplayDelay = 2 }},
		{"loss", func(c *Config) { c.Loss = 0.15 }},
		{"everything", func(c *Config) {
			c.Crashes = []Crash{{Time: half / 2, Node: 1, Restart: half}, {Time: half, Node: 3}}
			c.Duplicate = 0.2
			c.Reorder = 0.3
			c.Replay = 0.05
			c.ReplayDelay = 2
			c.Loss = 0.1
		}},
	}
	for _, sc := range scenarios {
		for seed := int64(0); seed < 8; seed++ {
			cfg := Config{Procs: 4, Seed: seed, RecoveryQuiet: 3, DiffGossip: true}
			sc.mut(&cfg)
			res := Run(tr, cfg)
			if !res.Terminated || !res.OptimumOK {
				t.Fatalf("%s/seed %d: %+v", sc.name, seed, res)
			}
			if res.Redundant > 5*res.Unique {
				t.Fatalf("%s/seed %d: unbounded redundancy: %d redundant vs %d unique",
					sc.name, seed, res.Redundant, res.Unique)
			}
		}
	}
}

// TestDiffGossipRestartRejoin pins the bootstrap path on its own: a process
// that crashes after real progress and rejoins with an empty table must be
// rebuilt by the Full-root fallback and detect termination with the group.
func TestDiffGossipRestartRejoin(t *testing.T) {
	tr := btree.Tiny(12)
	base := Run(tr, Config{Procs: 3, Seed: 7, RecoveryQuiet: 3, DiffGossip: true})
	if !base.Terminated {
		t.Fatal("baseline did not terminate")
	}
	res := Run(tr, Config{Procs: 3, Seed: 7, RecoveryQuiet: 3, DiffGossip: true,
		Crashes: []Crash{{Time: 0.5 * base.Time, Node: 0, Restart: 0.6 * base.Time}}})
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("late-restart rejoin failed: %+v", res)
	}
}

// TestDiffGossipDeterministic: diff mode draws its jitter from the same
// seeded per-node RNG streams as everything else, so runs stay exactly
// reproducible — counters, network stats, and finish time.
func TestDiffGossipDeterministic(t *testing.T) {
	tr := btree.Tiny(23)
	cfg := Config{Procs: 4, Seed: 42, RecoveryQuiet: 3, DiffGossip: true,
		Duplicate: 0.3, Reorder: 0.5, Replay: 0.1, ReplayDelay: 1,
		Crashes: []Crash{{Time: 1, Node: 2, Restart: 3}}}
	a, b := Run(tr, cfg), Run(tr, cfg)
	if a.Time != b.Time || a.Expanded != b.Expanded || a.Net != b.Net {
		t.Errorf("nondeterministic under diff gossip:\n%+v\nvs\n%+v", a.Net, b.Net)
	}
}

// TestDiffGossipShardInvariance: the sharded kernel runs the same protocol
// cores, so diff mode must keep the optimum at every shard count, chaos
// included.
func TestDiffGossipShardInvariance(t *testing.T) {
	k, ref := shardKnapsack()
	for _, S := range []int{1, 2, 4} {
		res := RunProblemRef(k, ref, Config{
			Procs: 64, Seed: 9, Prune: true, Shards: S, DiffGossip: true,
			Duplicate: 0.05, Reorder: 0.05,
			Crashes: []Crash{
				{Time: 0.5, Node: 3, Restart: 2.0},
				{Time: 1.0, Node: 17},
			},
			MaxTime: 1e6,
		})
		if !res.Terminated || !res.OptimumOK {
			t.Errorf("S=%d: terminated=%v optimumOK=%v optimum=%g",
				S, res.Terminated, res.OptimumOK, res.Optimum)
		}
	}
}
