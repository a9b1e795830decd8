package dbnb

import (
	"gossipbnb/internal/bnb"
	"gossipbnb/internal/metrics"
	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/protocol"
)

// Multi-instance runs: one simulated cluster solving several problem
// instances concurrently, each scoped to its own wire InstanceID. The paper's
// mechanism is per-problem by construction — the completion tree and the
// termination detector scope to one root — so multiplexing is namespacing,
// not a second driver: every process hosts an instance.Mux routing inbound
// messages to one node (execution context) per instance, and each instance
// runs the unmodified §5 protocol among its peers' same-instance cores,
// through the same harness as a single-problem run.
//
// Every instance has its own modeled execution context per process (an
// independent worker slice: own busy periods, own timers, own randomness
// stream derived from (seed, instance, process)), while the network
// endpoints are shared. That makes failure-free instances causally
// independent — the basis of the isolation guarantee the chaos tests pin —
// and keeps runs deterministic in (config, seed) and invariant in the shard
// count, by the mesh's wake-event + canonical batch-order discipline. Chaos
// draws (loss/dup/reorder/replay) come from shared network streams, so under
// chaos only each instance's solved optimum — not its event trajectory — is
// isolation-invariant.

// InstanceResult is one instance's slice of a run: one of a multi-instance
// run's, or the whole of a single-problem run's, which Result embeds.
type InstanceResult struct {
	// ID is the instance's wire identifier (its 1-based Instances position).
	ID protocol.InstanceID
	// Terminated reports whether every process that did not fail this
	// instance detected its termination before MaxTime.
	Terminated bool
	// Start is the instance's submission time; Time is when the last live
	// process detected its termination; FirstDetect the first.
	Start       float64
	Time        float64
	FirstDetect float64
	// Optimum is the best solution value known to the instance's terminated
	// processes; OptimumOK compares it against the instance's own sequential
	// solve (SeqOptimum, found in SeqExpanded expansions).
	Optimum     float64
	OptimumOK   bool
	SeqOptimum  float64
	SeqExpanded int
	// Expanded/Unique/Redundant are this instance's expansion counts.
	Expanded  int
	Unique    int
	Redundant int
	// Completions counts completion events summed over processes.
	Completions int
	// DetectTimes is per-process detection, indexed by process identity
	// (NaN = failed for this instance, +Inf = never detected).
	DetectTimes []float64
	// Work and Overhead are the instance's modeled CPU seconds summed over
	// processes: BB expansion vs. communication + contraction + load
	// balancing (Dwork/Halpern/Waarts-style accounting, per tenant).
	Work     float64
	Overhead float64
}

// MultiResult summarizes a multi-instance run.
type MultiResult struct {
	// Terminated reports whether every instance terminated.
	Terminated bool
	// Time is when the last instance finished.
	Time      float64
	Instances []InstanceResult
	// Events is the total simulator events fired; Shards how many event
	// shards ran.
	Events uint64
	Shards int
	// Met is the instance-labeled metrics registry: Met.At(i) is instance
	// i's per-process breakdowns and counters.
	Met *metrics.Multi
	// Net is the shared network's traffic ledger (all instances together).
	Net nemesis.NetStats
}

// RunInstances simulates the cluster solving every cfg.Instances problem
// concurrently and returns the per-instance measurements. Each instance's
// optimum is cross-checked against its own sequential solve. Runs are
// deterministic in (cfg, seed); failure-free runs are invariant in the shard
// count. Under UseMembership every process runs one §5.2 member, whose view
// all its instances share. Features whose state is inherently single-instance
// — tracing, elastic joins, per-link latency — are rejected, and so is a
// latency model without a positive floor.
func RunInstances(cfg Config) MultiResult {
	if len(cfg.Instances) == 0 {
		panic("dbnb: RunInstances requires at least one Instance")
	}
	cfg = cfg.withDefaults()
	if cfg.Trace != nil || len(cfg.Joins) > 0 ||
		cfg.LinkLatency != nil || cfg.fireHook != nil || shardLookahead(cfg) <= 0 {
		panic("dbnb: RunInstances does not support Trace, Joins, LinkLatency, or a latency model without a positive floor")
	}
	// Sequential references first: they are both the OptimumOK cross-check
	// and the throughput baseline the experiments compare against.
	specs := make([]*spec, len(cfg.Instances))
	for i, in := range cfg.Instances {
		specs[i] = &spec{
			id:       protocol.InstanceID(i + 1),
			idx:      i,
			start:    max(in.StartTime, 0),
			seed:     in.Seed,
			seedNode: i % cfg.Procs, // spread the roots across processes
			w:        problemWorkload(in.Problem, bnb.SolveProblem(in.Problem)),
		}
	}
	return newHarness(cfg, specs, true).run()
}
