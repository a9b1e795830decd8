// Package gossipbnb is a reproduction of "A Problem-Specific Fault-Tolerance
// Mechanism for Asynchronous, Distributed Systems" (Iamnitchi & Foster,
// ICPP 2000): a fully decentralized, asynchronous, fault-tolerant parallel
// branch-and-bound algorithm for opportunistic pools of unreliable machines,
// together with the substrates its evaluation depends on.
//
// The package re-exports what the examples under examples/ use:
//
//   - subproblem codes and the contracted completed-problem table — the
//     paper's fault-tolerance and termination-detection mechanism;
//   - a sequential branch-and-bound engine with pluggable selection rules,
//     over knapsack and QAP instances;
//   - "basic trees": recorded search trees that drive replay runs (§6.2);
//   - the deterministic discrete-event simulation of the full distributed
//     algorithm, with crash-stop and crash-restart failures;
//   - the DIB and centralized manager-worker baselines;
//   - a live goroutine runtime of the same protocol core, in memory or over
//     TCP, with a failure detector and the nemesis link-fault grammar both
//     runtimes speak.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record. Regenerate every table and figure with
//
//	go run ./cmd/figures -all
package gossipbnb

import (
	"math/rand"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/btree"
	"gossipbnb/internal/central"
	"gossipbnb/internal/code"
	"gossipbnb/internal/ctree"
	"gossipbnb/internal/dbnb"
	"gossipbnb/internal/dib"
	"gossipbnb/internal/live"
	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/sim"
	"gossipbnb/internal/trace"
)

// --- subproblem codes (§5.3.1) ----------------------------------------------

// RootCode returns the code of the original problem. A code identifies a
// node of the B&B tree by the branching decisions on its root path; together
// with the initial problem data it reconstructs the subproblem on any
// processor.
func RootCode() code.Code { return code.Root() }

// ParseCode parses the paper's notation, e.g. "(<x1,0>,<x2,1>)".
func ParseCode(s string) (code.Code, error) { return code.Parse(s) }

// DecodeCode reads one binary-encoded code from the front of buf.
func DecodeCode(buf []byte) (code.Code, int, error) { return code.Decode(buf) }

// --- completed-problem tables (§5.3.2, §5.4) -----------------------------------

// NewTable returns an empty completion table: a contracted set of
// completed-problem codes supporting the paper's three operations —
// contraction, complement, and termination detection.
func NewTable() *ctree.Table { return ctree.New() }

// DecodeTable reconstructs a table from Table.Encode output.
func DecodeTable(buf []byte) (*ctree.Table, error) { return ctree.Decode(buf) }

// --- sequential engine (§2) ------------------------------------------------------

// SolveOptions configures Solve.
type SolveOptions = bnb.Options

// SolvePool is the pool of active problems (the selection rule).
type SolvePool = bnb.Pool

// Solve runs sequential branch and bound from root.
func Solve(root bnb.Subproblem, opts SolveOptions) bnb.Result { return bnb.Solve(root, opts) }

// NewBestFirst returns a best-first (smallest bound) selection pool.
func NewBestFirst() SolvePool { return bnb.NewBestFirst() }

// NewDepthFirst returns a depth-first (LIFO) selection pool.
func NewDepthFirst() SolvePool { return bnb.NewDepthFirst() }

// NewBreadthFirst returns a breadth-first (FIFO) selection pool.
func NewBreadthFirst() SolvePool { return bnb.NewBreadthFirst() }

// NewKnapsack builds a 0/1 knapsack instance.
func NewKnapsack(values, weights []float64, capacity float64) (*bnb.Knapsack, error) {
	return bnb.NewKnapsack(values, weights, capacity)
}

// RandomKnapsack generates a weakly correlated random knapsack instance.
func RandomKnapsack(r *rand.Rand, n int) *bnb.Knapsack { return bnb.RandomKnapsack(r, n) }

// RandomQAP generates a symmetric random quadratic assignment instance of
// order n, with binarized branching — the problem class the paper's
// introduction motivates.
func RandomQAP(r *rand.Rand, n int) *bnb.QAP { return bnb.RandomQAP(r, n) }

// SolveProblem runs the sequential engine over a code-driven problem (a
// *Knapsack or a *QAP): the single-processor reference that distributed
// runs are cross-checked against.
func SolveProblem(p bnb.Problem) bnb.Result { return bnb.SolveProblem(p) }

// --- basic trees (§6.2) -------------------------------------------------------------

// CostModel draws per-node costs for tree generators.
type CostModel = btree.CostModel

// RandomTreeConfig parameterizes RandomTree.
type RandomTreeConfig = btree.RandomConfig

// RandomTree generates a random basic tree: bounds, per-node costs,
// feasibility, and the decompose structure.
func RandomTree(r *rand.Rand, cfg RandomTreeConfig) *btree.Tree { return btree.Random(r, cfg) }

// KnapsackTree records the basic tree of a knapsack instance (§6.2's
// "instrumented B&B code"). maxNodes caps recording (0 = unlimited).
func KnapsackTree(k *bnb.Knapsack, r *rand.Rand, cm CostModel, maxNodes int) *btree.Tree {
	return btree.FromKnapsack(k, r, cm, maxNodes)
}

// SequentialReplay replays best-first B&B over a basic tree on one
// processor: the baseline for speedup measurements.
func SequentialReplay(t *btree.Tree) btree.SequentialResult { return btree.Sequential(t) }

// --- the distributed algorithm (§5) ---------------------------------------------------

// SimConfig parameterizes a simulated run of the paper's algorithm.
type SimConfig = dbnb.Config

// Crash schedules a failure: crash-stop, or crash-restart when Restart is
// set — the process reboots with empty state and rebuilds from gossip.
type Crash = dbnb.Crash

// SelectDepthFirst is the depth-first local selection rule for
// SimConfig.Select and LiveConfig.Select; the zero value is best-first.
const SelectDepthFirst = dbnb.DepthFirst

// TraceLog records per-process activity spans (ASCII Gantt of Figures 5/6).
type TraceLog = trace.Log

// Run simulates the decentralized fault-tolerant algorithm replaying tree.
// Runs are deterministic in (tree, cfg).
func Run(tree *btree.Tree, cfg SimConfig) dbnb.Result { return dbnb.Run(tree, cfg) }

// RunProblemRef simulates the algorithm solving a code-driven problem from
// its initial data only — no recorded tree anywhere — cross-checked against
// ref, its sequential solve (from SolveProblem). Deterministic in
// (problem, cfg).
func RunProblemRef(p bnb.Problem, ref bnb.Result, cfg SimConfig) dbnb.Result {
	return dbnb.RunProblemRef(p, ref, cfg)
}

// PaperLatency is the paper's communication model: 1.5 + 0.005·L ms.
func PaperLatency() sim.LatencyModel { return sim.PaperLatency() }

// LinearLatency builds a base + perByte·L seconds latency model.
func LinearLatency(base, perByte float64) sim.LatencyModel {
	return sim.LinearLatency(base, perByte)
}

// --- baselines (§3, §5.5) ----------------------------------------------------------------

// DIBConfig parameterizes the DIB baseline.
type DIBConfig = dib.Config

// RunDIB simulates Finkel & Manber's DIB on the same tree and failure model.
func RunDIB(tree *btree.Tree, cfg DIBConfig) dib.Result { return dib.Run(tree, cfg) }

// CentralConfig parameterizes the centralized manager-worker baseline.
type CentralConfig = central.Config

// RunCentral simulates the centralized manager-worker baseline.
func RunCentral(tree *btree.Tree, cfg CentralConfig) central.Result { return central.Run(tree, cfg) }

// --- live runtime -----------------------------------------------------------------------

// LiveConfig parameterizes a wall-clock goroutine cluster.
type LiveConfig = live.Config

// LiveResult reports a live run.
type LiveResult = live.Result

// LiveNodeID identifies a process of a live cluster.
type LiveNodeID = live.NodeID

// NewTCPNetwork creates listeners for n live nodes on 127.0.0.1, for
// LiveConfig.Network.
func NewTCPNetwork(n int) (*live.TCPNetwork, error) { return live.NewTCPNetwork(n) }

// NewLiveCluster builds a live cluster replaying tree.
func NewLiveCluster(tree *btree.Tree, cfg LiveConfig) *live.Cluster {
	return live.NewCluster(tree, cfg)
}

// NewLiveProblemClusterRef builds a live cluster solving a code-driven
// problem from its initial data only — every process burns real CPU
// re-deriving subproblems from their codes — cross-checked against ref, its
// sequential solve (from SolveProblem).
func NewLiveProblemClusterRef(p bnb.Problem, ref bnb.Result, cfg LiveConfig) *live.Cluster {
	return live.NewProblemClusterRef(p, ref, cfg)
}

// InstanceHandle tracks one problem instance submitted mid-run to a live
// cluster with Cluster.SubmitRef: Done closes at cluster-wide resolution,
// Result cross-checks the optimum, Expanded reports live progress.
type InstanceHandle = live.Handle

// --- self-healing: failure detection and fault injection --------------------------------

// ParseNemesis builds a link-fault schedule for SimConfig.Nemesis (windows in
// virtual seconds) or LiveConfig.Nemesis (windows in wall-clock time from
// Run) from fault specs in the nemesis grammar, e.g.
// "partition:1-3:0,1|2,3", "flap:0-2:0.25", "stall:2:1-", "corrupt:0.1:0-5",
// "reorder:0.2:5ms", "replay:0.05". The same (time, src, dst) gets the same
// verdict in both runtimes, carried out in the same order, and a corrupt
// message is one damaged copy in both. The schedule keeps no clock, so one
// value may serve several runs, each from its own start.
func ParseNemesis(specs ...string) (*nemesis.Schedule, error) {
	fs, err := nemesis.ParseAll(specs)
	if err != nil {
		return nil, err
	}
	return nemesis.New(fs...), nil
}

// DetectEvent is one failure-detector transition, delivered to
// LiveConfig.OnDetect: the observing node suspected, cleared, excluded, or
// re-absorbed a peer.
type DetectEvent = live.DetectEvent
