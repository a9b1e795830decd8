// Package metrics implements the cost accounting of the paper's evaluation
// (§6.3): per-process execution time split into branch-and-bound work,
// communication handling, list contraction, load balancing, and idle time;
// message and byte counters; storage accounting for the replicated
// completed-problem tables (total and redundant); and redundant-work
// counters.
package metrics

import "fmt"

// Activity labels where a process's virtual time goes. The five categories
// are exactly the stacked bars of Figure 3.
type Activity int

// Activities, in the order the paper stacks them.
const (
	BB       Activity = iota // bounding + expanding subproblems
	Comm                     // packing, sending, and handling messages
	Contract                 // merging and contracting completed-code tables
	LB                       // requesting and transferring work
	Idle                     // nothing to do
	numActivities
)

// String returns the paper's label for the activity.
func (a Activity) String() string {
	switch a {
	case BB:
		return "BB time"
	case Comm:
		return "Communication time"
	case Contract:
		return "List Contraction time"
	case LB:
		return "LB time"
	case Idle:
		return "Idle time"
	}
	return fmt.Sprintf("Activity(%d)", int(a))
}

// Breakdown is a per-process split of virtual time by activity.
type Breakdown struct {
	t [numActivities]float64
}

// Add accrues d seconds to activity a. Negative durations panic: they would
// silently corrupt the percentages.
func (b *Breakdown) Add(a Activity, d float64) {
	if d < 0 {
		panic(fmt.Sprintf("metrics: negative duration %g for %v", d, a))
	}
	b.t[a] += d
}

// Get returns the seconds accrued to a.
func (b Breakdown) Get(a Activity) float64 { return b.t[a] }

// Total returns the sum over all activities.
func (b Breakdown) Total() float64 {
	s := 0.0
	for _, v := range b.t {
		s += v
	}
	return s
}

// Percent returns a's share of the total, in percent (0 if the total is 0).
func (b Breakdown) Percent(a Activity) float64 {
	tot := b.Total()
	if tot == 0 {
		return 0
	}
	return 100 * b.t[a] / tot
}

// Merge adds o into b.
func (b *Breakdown) Merge(o *Breakdown) {
	for i := range b.t {
		b.t[i] += o.t[i]
	}
}

// Node aggregates everything measured about one simulated process.
type Node struct {
	Breakdown
	Expanded      int   // subproblems whose cost this node paid
	Redundant     int   // expansions of subproblems some node had already completed
	ReportsSent   int   // work-report messages sent
	ReportCodes   int   // codes carried by those reports (after compression)
	ReportedComps int   // completions covered by flushed reports (before compression)
	TablesSent    int   // full-table gossip messages sent
	WorkSent      int   // subproblems shipped to requesters
	WorkRequests  int   // work-request messages sent
	RecoveryPlans int   // non-empty complement recovery plans drawn
	Recoveries    int   // subproblems those plans re-created
	PeakTableSize int   // bytes, max over time of the local table encoding
	PeakPool      int   // max active problems held at once
	BytesSent     int64 // payload bytes (mirror of the network's per-sender count)
}

// ObserveTable records the current size of the node's table, tracking the
// peak. Storage in the paper is the space used to store completed-code
// information across the whole system; the simulator measures a table by its
// encoded trie (ctree.Table.EncodedSize), what a push of it weighs on the
// wire.
func (n *Node) ObserveTable(bytes int) {
	if bytes > n.PeakTableSize {
		n.PeakTableSize = bytes
	}
}

// System aggregates per-node metrics plus the global storage view.
type System struct {
	Nodes []Node
	// UniquePeak is the peak encoded size of the union of all completed-code
	// information, i.e. the storage a single perfectly shared copy would
	// need. TotalStorage − UniquePeak is the paper's "redundant" storage.
	// The simulator keeps the union per event shard: exact on one shard; on
	// S > 1 this is the largest shard-local peak, an estimate that can err
	// either way — a shard's union holds fewer completions than the global
	// one, and fewer completions can also contract less.
	UniquePeak int
}

// NewSystem returns a System sized for n nodes.
func NewSystem(n int) *System { return &System{Nodes: make([]Node, n)} }

// TotalStorage sums per-node peak table sizes: the system-wide space devoted
// to completed-problem bookkeeping.
func (s *System) TotalStorage() int {
	tot := 0
	for i := range s.Nodes {
		tot += s.Nodes[i].PeakTableSize
	}
	return tot
}

// RedundantStorage is the storage beyond one shared copy of the union.
func (s *System) RedundantStorage() int {
	r := s.TotalStorage() - s.UniquePeak
	if r < 0 {
		return 0
	}
	return r
}

// ObserveUnique records the current encoded size of the global union table.
func (s *System) ObserveUnique(bytes int) {
	if bytes > s.UniquePeak {
		s.UniquePeak = bytes
	}
}

// TotalExpanded sums node expansions.
func (s *System) TotalExpanded() int {
	t := 0
	for i := range s.Nodes {
		t += s.Nodes[i].Expanded
	}
	return t
}

// TotalRedundant sums redundant expansions.
func (s *System) TotalRedundant() int {
	t := 0
	for i := range s.Nodes {
		t += s.Nodes[i].Redundant
	}
	return t
}

// TotalRecoveries sums the recovery plans drawn and the regions they
// re-created.
func (s *System) TotalRecoveries() (plans, regions int) {
	for i := range s.Nodes {
		plans += s.Nodes[i].RecoveryPlans
		regions += s.Nodes[i].Recoveries
	}
	return plans, regions
}

// AggregateBreakdown sums the per-node breakdowns.
func (s *System) AggregateBreakdown() Breakdown {
	var b Breakdown
	for i := range s.Nodes {
		b.Merge(&s.Nodes[i].Breakdown)
	}
	return b
}

// Work returns the productive seconds — branch-and-bound expansion time, the
// "work" axis of Dwork/Halpern/Waarts-style accounting.
func (b Breakdown) Work() float64 { return b.t[BB] }

// Overhead returns the protocol seconds: communication, contraction, and
// load balancing. Idle is excluded — it is neither work nor overhead, just a
// processor with nothing to do.
func (b Breakdown) Overhead() float64 { return b.t[Comm] + b.t[Contract] + b.t[LB] }

// Multi adds the instance label dimension to the registry: one System per
// problem instance multiplexed over the cluster, so work, overhead, storage,
// and redundancy stay attributable per tenant. Indexing is by instance slot
// (0-based), not wire InstanceID — drivers own that mapping.
type Multi struct {
	Systems []*System
}

// NewMulti returns a registry for instances slots of nodes processes each.
func NewMulti(instances, nodes int) *Multi {
	m := &Multi{Systems: make([]*System, instances)}
	for i := range m.Systems {
		m.Systems[i] = NewSystem(nodes)
	}
	return m
}

// At returns instance slot i's System.
func (m *Multi) At(i int) *System { return m.Systems[i] }

// AggregateBreakdown sums the per-instance aggregate breakdowns — the
// whole-cluster time split across every tenant.
func (m *Multi) AggregateBreakdown() Breakdown {
	var b Breakdown
	for _, s := range m.Systems {
		sb := s.AggregateBreakdown()
		b.Merge(&sb)
	}
	return b
}

// NetHealth aggregates what the self-healing layer observed during a run:
// transport integrity rejections, injected-fault casualties, and the failure
// detector's state transitions. Exclusions minus Reabsorbed that concern
// still-live nodes is the detector's false-positive cost — time lost, never
// correctness (§4's model already tolerates every drop counted here).
type NetHealth struct {
	CorruptFrames int64 // frames rejected by the transport CRC (or destroyed in transit)
	CutMessages   int64 // messages severed by injected partitions/stalls/flaps
	SuspectDrops  int64 // sends suppressed toward locally excluded peers
	Suspicions    int64 // alive → suspect transitions across all detectors
	Exclusions    int64 // suspect → excluded transitions across all detectors
	Reabsorbed    int64 // excluded peers readmitted after re-announcing
}

// MB converts bytes to megabytes (10^6, as the paper reports).
func MB(bytes int64) float64 { return float64(bytes) / 1e6 }
