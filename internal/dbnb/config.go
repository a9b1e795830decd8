// Package dbnb simulates the paper's contribution (§5): a fully
// decentralized, asynchronous, fault-tolerant parallel branch-and-bound
// algorithm for unreliable pools of resources.
//
// The protocol itself — load balancing, incumbent circulation, the
// tree-code fault-tolerance mechanism, almost-implicit termination
// detection — lives in internal/protocol, shared verbatim with the live
// goroutine runtime (internal/live). This package is the deterministic-sim
// driver: it feeds virtual time and internal/sim network events into the
// core and charges the modeled CPU costs of the paper's evaluation. It
// solves either a recorded basic tree (Run — exactly the paper's Parsec
// experiments) or a real code-driven problem expanded from its initial
// data (RunProblem).
package dbnb

import (
	"slices"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/protocol"
	"gossipbnb/internal/sim"
	"gossipbnb/internal/trace"
)

// SelectRule chooses which active problem a process branches next — the
// protocol core's type, shared with the live runtime.
type SelectRule = protocol.SelectRule

// Selection rules.
const (
	BestFirst  = protocol.BestFirst
	DepthFirst = protocol.DepthFirst
)

// Crash schedules a failure of one process: crash-stop when Restart is zero,
// crash-restart when Restart > Time. A restarted process re-enters under its
// old identity with an empty table and an empty pool — the paper's central
// claim is that the completed-work table is the only state that matters, so
// the process rebuilds purely from the reports, tables, and grants it
// receives after rejoining. Runs stay deterministic in (scenario, seed).
type Crash struct {
	Time float64 // virtual time of the halt
	Node int
	// Restart, if > Time, is the virtual time the process comes back.
	Restart float64
	// Instance scopes the failure in multi-instance runs (RunInstances):
	// 0 fails the whole process — every instance it hosts plus its network
	// endpoint — while k > 0 fails only instance k's execution context
	// (1-based, in Instances order), leaving the process's other instances
	// running. Single-instance runs (Run/RunProblem) ignore it.
	Instance int
}

// Instance describes one problem of a multi-instance run (RunInstances): the
// code-driven problem to solve, the seed its per-process protocol randomness
// derives from, and the virtual time the instance is submitted to the
// cluster. Instances are identified on the wire by their 1-based position in
// Config.Instances.
type Instance struct {
	Problem   bnb.Problem
	Seed      int64
	StartTime float64
}

// Join schedules Count brand-new processes to enter the computation at
// virtual time Time — elastic membership, the converse of Crash. Joiners get
// fresh dense identities after the initial Procs (assigned in event-time
// order), announce themselves, are absorbed into every live peer view,
// bootstrap their completion tables from a neighbor via the Full-root
// subtree transfer, and start stealing work. Without UseMembership the view
// change is the predetermined-pool analogue: every process's view tracks the
// scheduled member count as a pure function of virtual time, so runs stay
// deterministic in (scenario, seed) and invariant in the shard count. With
// UseMembership joiners run the real §5.2 announce/absorb path.
type Join struct {
	Time  float64 // virtual time the processes come up
	Count int
}

// Config parameterizes a simulated run.
type Config struct {
	Procs int
	Seed  int64

	// Shards partitions the simulated processes across that many parallel
	// event shards, each with its own kernel, synchronized by a conservative
	// lookahead barrier at the latency model's static minimum delay. There is
	// one event discipline at every count: each process draws its randomness
	// from its own (Seed, id)-derived stream, so failure-free results are
	// invariant in the shard count, and a fixed (Seed, Shards) pair is
	// exactly reproducible. Fault draws (loss/corrupt/reorder/dup/replay)
	// come from per-shard streams, so under them only the solved optimum —
	// not the event trajectory — is shard-count invariant.
	//
	// Values below 1 (the zero value included) mean one shard — not one per
	// CPU, which would make a seeded chaos run depend on the machine — and
	// values above Procs are clamped. Features whose state cannot be
	// partitioned run on one shard whatever is asked: UseMembership, a
	// non-nil Trace, LinkLatency, and latency models without a positive
	// zero-byte floor. Result.Shards reports the count that ran.
	Shards int

	// Network model. Latency nil means the paper's 1.5 + 0.005·L ms model.
	Latency sim.LatencyModel

	// LinkLatency, if non-nil, refines the latency model per (from, to) pair
	// — non-uniform topologies like two clusters joined by a slow WAN link.
	// Scenarios with a link model run on one shard (the barrier's lookahead
	// is derived from the uniform model's floor, which per-link delays need
	// not respect) and send the termination broadcast link by link.
	LinkLatency func(from, to int, bytes int) float64

	// DiffGossip switches the report path to anti-entropy diff gossip:
	// reports carry the completion table's content digest plus the recent
	// delta; a receiver whose digest differs walks the sender's per-subtree
	// digests and pulls only the missing regions, instead of everyone
	// periodically pushing full-table frontiers. Default off — the legacy
	// full-frontier path, the one the golden event-order tests pin.
	DiffGossip bool

	// Nemesis schedules the §4 link faults in the grammar the live runtime
	// also speaks (internal/nemesis): partitions, one-way cuts, flaps,
	// stalls, slow links, and per-message loss, corruption, reordering,
	// duplication and stale replay, each over a window of virtual seconds.
	// Every send is judged once, at send time. nil is a clean network.
	Nemesis *nemesis.Schedule
	// Loss, Duplicate and Reorder are whole-run loss:P, dup:P and
	// reorder:P faults added to Nemesis: the per-message probability a
	// message is dropped, delivered twice (the copy takes its own latency,
	// so the pair races), or held back by up to 10× the base latency so
	// later sends overtake it.
	Loss      float64
	Duplicate float64
	Reorder   float64

	// CostFactor scales every node cost, the paper's granularity knob
	// ("we tuned this granularity by multiplying all time values by a
	// constant factor"): a tree node's recorded cost, or nodeCost per
	// code-driven expansion. 0 means 1.
	CostFactor float64

	// Prune enables incumbent-based elimination. The paper prunes real
	// trees and runs random trees "without eliminating the unpromising
	// nodes"; both modes are supported.
	Prune bool

	// Select is the local selection rule (§2): BestFirst pops the smallest
	// bound, DepthFirst the most recently generated problem. Depth-first
	// completes whole subtrees locally, which is what makes work-report
	// compression effective (§5.3.2) and keeps pools small.
	Select SelectRule

	// ReportBatch is c: completed codes accumulated before a work report is
	// sent. ReportFanout is m: how many random members receive each report.
	// They, ReportTimeout, MinPoolToShare and RecoveryPatience are copied
	// into the protocol core's config, whose defaults fill the unset ones.
	ReportBatch  int
	ReportFanout int
	// ReportTimeout flushes a non-empty outbox that has waited this long.
	ReportTimeout float64
	// AdaptiveReports scales the outbox flush timeout with the observed
	// per-subproblem execution time, so that coarse-granularity runs do not
	// ship half-empty reports at a fixed wall-clock cadence. This is the
	// adaptive mechanism the paper calls for after observing that
	// "communication increases unnecessarily because work reports are sent
	// at fixed time intervals" (§6.3.1, §7).
	AdaptiveReports bool

	// MinPoolToShare is how many active problems a process must hold before
	// it grants work away.
	MinPoolToShare int
	// RecoveryPatience is how many consecutive failed work requests a
	// process tolerates before it presumes work was lost and recovers an
	// uncompleted problem from the complement of its table (§5.3.2).
	RecoveryPatience int
	// RecoveryQuiet is the minimum window without any remote progress (a
	// work grant, or a report/table that taught the process something new)
	// before a starving process may presume work was lost. It prevents the
	// complement of a still-empty table — the root problem — from being
	// redundantly adopted during start-up, when idleness just means the
	// work has not spread yet. Each attempt jitters the window ±25% so
	// concurrent recoverers stagger. This is the paper's "how soon failure
	// is suspected after a machine unsuccessfully tries to get work" knob.
	// 0 means ten retry paces.
	RecoveryQuiet float64

	// UseMembership runs the gossip membership protocol (§5.2) instead of a
	// predetermined resource pool; the paper's own simulations use the
	// predetermined pool ("we do not include yet the membership protocol").
	UseMembership bool

	// Process failures and elastic membership.
	Crashes []Crash
	Joins   []Join

	// Instances is the multi-instance workload of RunInstances: every listed
	// problem is solved concurrently over the same process pool, each scoped
	// to its own wire InstanceID. Run/RunProblem ignore it.
	Instances []Instance

	// MaxTime aborts a run that fails to terminate (0 = 1e9 seconds).
	MaxTime float64

	// Trace, if non-nil, records per-process activity spans (Figures 5/6).
	Trace *trace.Log

	// retryDelay paces retries after a failed work request (0 = 1 s).
	// While retrying, a starving process also pushes its table to random
	// members — the paper's observation that lightly loaded processes
	// "suspect termination and send more work reports". Test-only, like
	// fireHook: TestSnapshotSharedMesh shortens it.
	retryDelay float64

	// fireHook, if non-nil, observes every kernel event's (time, seq) as it
	// fires. Test-only: the golden event-order tests hash this stream to
	// prove a kernel rewrite preserves the exact firing order of seeded runs.
	fireHook func(t float64, seq uint64)
}

// commOverhead is the modeled CPU seconds to handle one received message;
// contractPerCode the CPU seconds per code merged into the table. Together
// they produce the paper's "communication time" and "list contraction time"
// columns. nodeCost is the modeled CPU seconds per expansion in code-driven
// problem runs, standing in for the per-node costs a basic tree records; the
// charge for each subproblem jitters ±50% by a hash of its code (costJitter),
// so runs stay deterministic in (problem, seed, config) while avoiding
// system-wide lockstep.
const (
	commOverhead    = 200e-6
	contractPerCode = 20e-6
	nodeCost        = 0.01
)

// schedule is the nemesis schedule a run judges its sends against: Nemesis
// plus the whole-run faults Loss, Duplicate and Reorder stand for. A
// malformed probability — a sign typo, a NaN — panics in nemesis.New rather
// than silently running a well-behaved network.
func (c Config) schedule() *nemesis.Schedule {
	fs := slices.Clone(c.Nemesis.Faults())
	for _, f := range [...]nemesis.Fault{
		{Kind: nemesis.Loss, Prob: c.Loss},
		{Kind: nemesis.Dup, Prob: c.Duplicate},
		{Kind: nemesis.Reorder, Prob: c.Reorder},
	} {
		if f.Prob != 0 {
			fs = append(fs, f)
		}
	}
	return nemesis.New(fs...)
}

// withDefaults fills the unset fields the driver reads with the defaults used
// throughout the experiments. The protocol fields it only copies get theirs
// from protocol.Config, so the two runtimes cannot drift apart.
func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = 1
	}
	if c.Latency == nil {
		c.Latency = sim.PaperLatency()
	}
	if c.CostFactor <= 0 {
		c.CostFactor = 1
	}
	if c.retryDelay <= 0 {
		c.retryDelay = 1
	}
	if c.RecoveryQuiet <= 0 {
		c.RecoveryQuiet = 10 * c.retryDelay
	}
	if c.MaxTime <= 0 {
		c.MaxTime = 1e9
	}
	return c
}
