// Package gossipbnb is a reproduction of "A Problem-Specific Fault-Tolerance
// Mechanism for Asynchronous, Distributed Systems" (Iamnitchi & Foster,
// ICPP 2000): a fully decentralized, asynchronous, fault-tolerant parallel
// branch-and-bound algorithm for opportunistic pools of unreliable machines,
// together with the substrates its evaluation depends on.
//
// The package re-exports the stable public surface:
//
//   - subproblem codes and the contracted completed-problem table — the
//     paper's fault-tolerance and termination-detection mechanism;
//   - the canonical protocol vocabulary: the one wire-message set and
//     binary codec every runtime speaks (internal/protocol);
//   - a sequential branch-and-bound engine with pluggable selection rules,
//     knapsack and QAP workloads, and a code-driven expander that
//     re-derives any subproblem from its code plus the initial data;
//   - "basic trees": recorded search trees that drive replay runs;
//   - the deterministic discrete-event simulation of the full distributed
//     algorithm, with crash-stop, crash-restart, loss, partition,
//     duplication, reordering, and stale-replay injection;
//   - the DIB and centralized manager-worker baselines;
//   - a live goroutine/channel runtime of the same protocol core.
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
	"gossipbnb/internal/metrics"
	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/protocol"
	"gossipbnb/internal/sim"
	"gossipbnb/internal/trace"
)

// --- subproblem codes (§5.3.1) ----------------------------------------------

// Code identifies a node of the B&B tree by the branching decisions on its
// root path. Codes are self-contained: together with the initial problem
// data they reconstruct the subproblem on any processor.
type Code = code.Code

// Decision is one ⟨variable, branch⟩ pair of a Code.
type Decision = code.Decision

// RootCode returns the code of the original problem.
func RootCode() Code { return code.Root() }

// ParseCode parses the paper's notation, e.g. "(<x1,0>,<x2,1>)".
func ParseCode(s string) (Code, error) { return code.Parse(s) }

// DecodeCode reads one binary-encoded code from the front of buf.
func DecodeCode(buf []byte) (Code, int, error) { return code.Decode(buf) }

// --- completed-problem tables (§5.3.2, §5.4) -----------------------------------

// Table is a contracted set of completed-problem codes supporting the
// paper's three operations: contraction, complement, and termination
// detection.
type Table = ctree.Table

// NewTable returns an empty completion table.
func NewTable() *Table { return ctree.New() }

// DecodeTable reconstructs a table from Table.Encode output — the trie in
// pre-order, two bits of shape per vertex and one variable per inner vertex —
// at any depth a table holds; its memory is bounded by its input.
func DecodeTable(buf []byte) (*Table, error) { return ctree.Decode(buf) }

// --- canonical protocol messages and codec (§5) ---------------------------------

// Msg is a canonical wire message of the protocol — the single vocabulary
// both the simulator and the live runtime speak (internal/protocol).
type Msg = protocol.Msg

// Report is a work report: a contracted batch of completed-problem codes
// (§5.3.2). A report whose only code is the root is the termination report
// of §5.4: broadcast by a process that detects termination, forwarded by the
// ones it tells, and a finished process's answer to a work request.
type Report = protocol.Report

// TableMsg is the occasional full-table consistency push.
type TableMsg = protocol.TableMsg

// WorkRequest asks a randomly chosen member for problems.
type WorkRequest = protocol.WorkRequest

// WorkGrant transfers problems by their self-contained codes.
type WorkGrant = protocol.WorkGrant

// WorkDeny tells a requester its target has no work to spare.
type WorkDeny = protocol.WorkDeny

// EncodeMsg appends the canonical binary encoding of m to dst — the codec
// used verbatim by the TCP transport's frames. A set of codes — a report, a
// table push, a leaf subtree reply — travels as its trie and a grant as the
// list of its codes; the decoder's memory is bounded by its input for both,
// so every message goes at any depth a table holds: 2^20 levels, where
// Table.Insert stops. It fails only on a type outside the canonical set.
func EncodeMsg(dst []byte, m Msg) ([]byte, error) { return protocol.Encode(dst, m) }

// DecodeMsg reads one canonical message from the front of buf, returning
// the message and the number of bytes consumed.
func DecodeMsg(buf []byte) (Msg, int, error) { return protocol.Decode(buf) }

// InstanceID scopes a wire message to one problem instance when several are
// multiplexed over a cluster; 0 is the legacy single instance, whose
// encoding is bit-identical to the pre-instance wire format.
type InstanceID = protocol.InstanceID

// InstMsg tags a canonical message with its instance for the wire.
type InstMsg = protocol.InstMsg

// DecodeInstanceMsg reads one canonical message that may carry an instance
// tag, returning the instance (0 = legacy), the message, and the bytes
// consumed.
func DecodeInstanceMsg(buf []byte) (InstanceID, Msg, int, error) {
	return protocol.DecodeInstance(buf)
}

// --- sequential engine (§2) ------------------------------------------------------

// Subproblem is a node of a binary branch-and-bound search (minimization).
type Subproblem = bnb.Subproblem

// SolveOptions configures Solve.
type SolveOptions = bnb.Options

// SolveResult reports a sequential solve.
type SolveResult = bnb.Result

// SolvePool is the pool of active problems (the selection rule).
type SolvePool = bnb.Pool

// Solve runs sequential branch and bound from root.
func Solve(root Subproblem, opts SolveOptions) SolveResult { return bnb.Solve(root, opts) }

// NewBestFirst returns a best-first (smallest bound) selection pool.
func NewBestFirst() SolvePool { return bnb.NewBestFirst() }

// NewDepthFirst returns a depth-first (LIFO) selection pool.
func NewDepthFirst() SolvePool { return bnb.NewDepthFirst() }

// NewBreadthFirst returns a breadth-first (FIFO) selection pool.
func NewBreadthFirst() SolvePool { return bnb.NewBreadthFirst() }

// Knapsack is a 0/1 knapsack instance, the realistic workload generator.
type Knapsack = bnb.Knapsack

// NewKnapsack builds a knapsack instance.
func NewKnapsack(values, weights []float64, capacity float64) (*Knapsack, error) {
	return bnb.NewKnapsack(values, weights, capacity)
}

// RandomKnapsack generates a weakly correlated random instance.
func RandomKnapsack(r *rand.Rand, n int) *Knapsack { return bnb.RandomKnapsack(r, n) }

// QAP is a quadratic assignment instance with binarized branching — the
// problem class the paper's introduction motivates.
type QAP = bnb.QAP

// NewQAP builds a quadratic assignment instance from flow and distance
// matrices.
func NewQAP(flow, dist [][]float64) (*QAP, error) { return bnb.NewQAP(flow, dist) }

// RandomQAP generates a symmetric random instance of order n.
func RandomQAP(r *rand.Rand, n int) *QAP { return bnb.RandomQAP(r, n) }

// --- code-driven expansion (§5.3.1 for real) -------------------------------------

// Problem is the initial data of a code-driven workload: anything producing
// the root subproblem. *Knapsack and *QAP satisfy it.
type Problem = bnb.Problem

// BnBExpander resolves subproblem codes by re-deriving solver state from
// the initial problem data — the paper's central claim, exercised for real
// instead of replayed from a recorded tree. Create one per process.
type BnBExpander = bnb.Expander

// NewBnBExpander builds a code-driven expander over p's initial data.
func NewBnBExpander(p Problem) *BnBExpander { return bnb.NewExpander(p) }

// ParseProblemSpec builds a Problem from "knapsack:<n>:<seed>" or
// "qap:<n>:<seed>" — the vocabulary of cmd/dbbsim's -problem flag.
func ParseProblemSpec(spec string) (Problem, error) { return bnb.ParseSpec(spec) }

// SolveProblem runs the sequential engine over p: the single-processor
// reference that distributed runs are cross-checked against.
func SolveProblem(p Problem) SolveResult { return bnb.SolveProblem(p) }

// --- basic trees (§6.2) -------------------------------------------------------------

// Tree is a recorded ("basic") search tree: bounds, per-node costs,
// feasibility, and the decompose structure.
type Tree = btree.Tree

// TreeNode is one recorded subproblem.
type TreeNode = btree.Node

// TreeStats summarizes a tree.
type TreeStats = btree.Stats

// CostModel draws per-node costs for tree generators.
type CostModel = btree.CostModel

// RandomTreeConfig parameterizes RandomTree.
type RandomTreeConfig = btree.RandomConfig

// RandomTree generates a random basic tree.
func RandomTree(r *rand.Rand, cfg RandomTreeConfig) *Tree { return btree.Random(r, cfg) }

// KnapsackTree records the basic tree of a knapsack instance (§6.2's
// "instrumented B&B code"). maxNodes caps recording (0 = unlimited).
func KnapsackTree(k *Knapsack, r *rand.Rand, cm CostModel, maxNodes int) *Tree {
	return btree.FromKnapsack(k, r, cm, maxNodes)
}

// LoadTree reads a tree saved by Tree.Save.
func LoadTree(path string) (*Tree, error) { return btree.Load(path) }

// SequentialReplay replays best-first B&B over a basic tree on one
// processor: the baseline for speedup measurements.
func SequentialReplay(t *Tree) btree.SequentialResult { return btree.Sequential(t) }

// --- the distributed algorithm (§5) ---------------------------------------------------

// SimConfig parameterizes a simulated run of the paper's algorithm.
type SimConfig = dbnb.Config

// SimResult reports a simulated run.
type SimResult = dbnb.Result

// Crash schedules a failure: crash-stop, or crash-restart when Restart is
// set — the process reboots with empty state and rebuilds from gossip.
type Crash = dbnb.Crash

// SelectRule picks the local selection discipline of SimConfig.Select.
type SelectRule = dbnb.SelectRule

// Selection rules for SimConfig.Select.
const (
	SelectBestFirst  = dbnb.BestFirst
	SelectDepthFirst = dbnb.DepthFirst
)

// Partition schedules a temporary network partition.
type Partition = dbnb.Partition

// TraceLog records per-process activity spans (ASCII Gantt of Figures 5/6).
type TraceLog = trace.Log

// Run simulates the decentralized fault-tolerant algorithm replaying tree.
// Runs are deterministic in (tree, cfg).
func Run(tree *Tree, cfg SimConfig) SimResult { return dbnb.Run(tree, cfg) }

// RunProblem simulates the algorithm solving a code-driven problem from its
// initial data only — no recorded tree anywhere. Deterministic in
// (problem, cfg); expansion charges SimConfig.NodeCost.
func RunProblem(p Problem, cfg SimConfig) SimResult { return dbnb.RunProblem(p, cfg) }

// RunProblemRef is RunProblem with a precomputed sequential reference
// (from SolveProblem), sparing callers a second sequential solve.
func RunProblemRef(p Problem, ref SolveResult, cfg SimConfig) SimResult {
	return dbnb.RunProblemRef(p, ref, cfg)
}

// SimInstance describes one problem of a multi-instance simulated run:
// the code-driven problem, its protocol randomness seed, and its virtual
// submission time (SimConfig.Instances).
type SimInstance = dbnb.Instance

// MultiResult summarizes a multi-instance simulated run.
type MultiResult = dbnb.MultiResult

// InstanceResult is one instance's slice of a MultiResult.
type InstanceResult = dbnb.InstanceResult

// RunInstances solves every SimConfig.Instances problem concurrently over
// one simulated cluster, each scoped to its own wire InstanceID and
// cross-checked against its own sequential solve. Deterministic in
// (cfg, seed), invariant in the shard count.
func RunInstances(cfg SimConfig) MultiResult { return dbnb.RunInstances(cfg) }

// PaperLatency is the paper's communication model: 1.5 + 0.005·L ms.
func PaperLatency() sim.LatencyModel { return sim.PaperLatency() }

// LinearLatency builds a base + perByte·L seconds latency model.
func LinearLatency(base, perByte float64) sim.LatencyModel {
	return sim.LinearLatency(base, perByte)
}

// --- baselines (§3, §5.5) ----------------------------------------------------------------

// DIBConfig parameterizes the DIB baseline.
type DIBConfig = dib.Config

// DIBResult reports a DIB run.
type DIBResult = dib.Result

// RunDIB simulates Finkel & Manber's DIB on the same tree and failure model.
func RunDIB(tree *Tree, cfg DIBConfig) DIBResult { return dib.Run(tree, cfg) }

// CentralConfig parameterizes the centralized manager-worker baseline.
type CentralConfig = central.Config

// CentralResult reports a centralized run.
type CentralResult = central.Result

// RunCentral simulates the centralized manager-worker baseline.
func RunCentral(tree *Tree, cfg CentralConfig) CentralResult { return central.Run(tree, cfg) }

// --- live runtime -----------------------------------------------------------------------

// LiveConfig parameterizes a wall-clock goroutine/channel cluster.
type LiveConfig = live.Config

// LiveResult reports a live run.
type LiveResult = live.Result

// LiveCluster is a set of goroutine-backed processes running the protocol
// in real time over an in-memory lossy transport.
type LiveCluster = live.Cluster

// LiveNodeID identifies a process of a LiveCluster.
type LiveNodeID = live.NodeID

// LiveNet is the transport interface a LiveCluster runs over.
type LiveNet = live.Net

// LiveTransport is the in-memory lossy transport.
type LiveTransport = live.Transport

// LiveChaos parameterizes adversarial delivery for the in-memory transport:
// duplication, bounded reordering, and stale replay (LiveConfig.Chaos).
type LiveChaos = live.Chaos

// TCPNetwork runs the live protocol over real TCP sockets on loopback.
type TCPNetwork = live.TCPNetwork

// NewTCPNetwork creates listeners for n live nodes on 127.0.0.1.
func NewTCPNetwork(n int) (*TCPNetwork, error) { return live.NewTCPNetwork(n) }

// NewLiveCluster builds a live cluster replaying tree.
func NewLiveCluster(tree *Tree, cfg LiveConfig) *LiveCluster { return live.NewCluster(tree, cfg) }

// NewLiveProblemCluster builds a live cluster solving a code-driven problem
// from its initial data only: every process burns real CPU re-deriving
// subproblems through its own BnBExpander.
func NewLiveProblemCluster(p Problem, cfg LiveConfig) *LiveCluster {
	return live.NewProblemCluster(p, cfg)
}

// NewLiveProblemClusterRef is NewLiveProblemCluster with a precomputed
// sequential reference (from SolveProblem), sparing callers that already
// solved the instance a second solve.
func NewLiveProblemClusterRef(p Problem, ref SolveResult, cfg LiveConfig) *LiveCluster {
	return live.NewProblemClusterRef(p, ref, cfg)
}

// InstanceHandle tracks one problem instance submitted mid-run to a live
// cluster with LiveCluster.Submit: Done closes at cluster-wide resolution,
// Result cross-checks the optimum, Expanded reports live progress.
type InstanceHandle = live.Handle

// --- self-healing: failure detection and fault injection --------------------------------

// NemesisSchedule is a declarative fault-injection schedule for the live
// transports: partitions, one-way cuts, flapping links, stalls, slow links,
// and byte corruption, each over a time window (LiveConfig.Nemesis).
type NemesisSchedule = nemesis.Schedule

// NemesisFault is one scheduled fault of a NemesisSchedule.
type NemesisFault = nemesis.Fault

// ParseNemesis builds a schedule from fault specs in the nemesis grammar,
// e.g. "partition:1-3:0,1|2,3", "flap:0-2:0.25", "stall:2:1-",
// "corrupt:0.1:0-5".
func ParseNemesis(specs ...string) (*NemesisSchedule, error) {
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

// DetectKind labels a DetectEvent.
type DetectKind = live.DetectKind

// Detector transitions, in escalation order.
const (
	Suspected  = live.Suspected
	Cleared    = live.Cleared
	Excluded   = live.Excluded
	Reabsorbed = live.Reabsorbed
)

// LiveNetStats is a live transport's traffic ledger with per-cause drop
// counts (LiveResult.Net).
type LiveNetStats = live.NetStats

// NetHealth summarizes what the self-healing layer observed during a run:
// CRC rejections, injected-fault casualties, and detector transitions
// (LiveResult.Health).
type NetHealth = metrics.NetHealth
