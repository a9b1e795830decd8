package live

import (
	"fmt"
	"math"
	"sync/atomic"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/protocol"
)

// instSpec is the cluster-wide registry entry of one instance: the recipe
// every node needs to open it (a fresh expander, and for a tree replay the
// sleep an expansion stands for), the node elected to seed its root, and the
// resolution state the Run loop sweeps. specs[0] is the boot problem the
// cluster was built for; the rest were submitted mid-run. Fields below the
// comment line are guarded by Cluster.instMu; the atomics are free-standing.
type instSpec struct {
	id     protocol.InstanceID
	newExp func() protocol.Expander
	// sleepOf is the scaled seconds an expansion sleeps before the expander
	// computes the outcome: a recorded tree's node cost. nil for code-driven
	// problems, whose outcome computation is itself the work.
	sleepOf func(it protocol.Item) float64
	trueOpt float64
	// seedNode is the node elected to seed the instance's root. If it crashes
	// before seeding, any other node that polls the registry claims the
	// seeding by the same CAS — the instance cannot be stranded by one
	// failure.
	seedNode *liveNode
	seeded   atomic.Bool
	// expanded is the Handle's live progress count, so only submitted
	// instances book it: the boot problem has no Handle, and one counter all
	// nodes write on every expansion would cost it measurable time.
	expanded atomic.Int64

	// Guarded by Cluster.instMu.
	done     map[NodeID]bool // nodes that detected this instance's termination
	optimum  float64         // the best of their final incumbents; +Inf until one detects
	resolved bool

	doneCh chan struct{} // closed at resolution; publishes optimum/resolved
}

// Handle tracks one submitted instance. Done is closed when every live node
// detected the instance's termination; Result is then stable.
type Handle struct {
	// ID is the instance's wire identifier, tagging all its traffic.
	ID   protocol.InstanceID
	spec *instSpec
}

// Done returns a channel closed when the instance resolves — every node
// still alive has detected its termination.
func (h *Handle) Done() <-chan struct{} { return h.spec.doneCh }

// Result returns the solved optimum once the instance resolved, and whether
// it matches the sequential reference. Before resolution it reports ok=false
// with a NaN optimum.
func (h *Handle) Result() (optimum float64, ok bool) {
	select {
	case <-h.spec.doneCh:
		// The closing write under instMu happens-before this read.
		return h.spec.optimum, h.spec.optimum == h.spec.trueOpt
	default:
		return math.NaN(), false
	}
}

// Expanded reports how many subproblems the cluster has expanded for this
// instance so far — live progress, monotone while the instance runs.
func (h *Handle) Expanded() int64 { return h.spec.expanded.Load() }

// SubmitRef starts solving a brand-new problem instance on the running
// cluster, multiplexed over the same nodes, transport, and membership as
// everything already in flight; ref is its sequential solve
// (bnb.SolveProblem), the reference Handle.Result cross-checks the optimum
// against. The instance is assigned the next wire ID, a live node is elected
// to seed its root, and every node opens it at its next registry poll.
// Submission requires a running cluster, like AddNode.
func (cl *Cluster) SubmitRef(p bnb.Problem, ref bnb.Result) (*Handle, error) {
	cl.stopMu.Lock()
	defer cl.stopMu.Unlock()
	if !cl.started || cl.stopped {
		return nil, fmt.Errorf("live: SubmitRef on a cluster that is not running")
	}
	for _, n := range cl.nodes {
		if !n.crashed.Load() {
			sp := cl.register(func() protocol.Expander { return bnb.NewExpander(p) }, nil, ref.Value, n)
			return &Handle{ID: sp.id, spec: sp}, nil
		}
	}
	return nil, fmt.Errorf("live: no live node to seed the instance")
}

// register appends an instance to the registry under the next wire ID and
// bumps the epoch, so every node opens it at its next registry poll.
func (cl *Cluster) register(newExp func() protocol.Expander, sleepOf func(protocol.Item) float64, trueOpt float64, seed *liveNode) *instSpec {
	cl.instMu.Lock()
	sp := &instSpec{
		id:       protocol.InstanceID(len(cl.specs)),
		newExp:   newExp,
		sleepOf:  sleepOf,
		trueOpt:  trueOpt,
		seedNode: seed,
		done:     map[NodeID]bool{},
		optimum:  math.Inf(1),
		doneCh:   make(chan struct{}),
	}
	cl.specs = append(cl.specs, sp)
	cl.instMu.Unlock()
	cl.instEpoch.Add(1)
	return sp
}

// syncInstances reconciles this incarnation's mux with the registry; it is
// the one path by which any incarnation opens any instance. The fast path is
// one atomic epoch load; only a changed epoch — or an unknown tagged message
// — walks the spec list. Each unresolved instance this node has not yet
// finished gets a fresh core; the elected seeder (or, if it crashed, whoever
// gets here first) seeds the root, won by CAS so exactly one root ever
// enters the system.
func (inc *incarnation) syncInstances() {
	cl := inc.n.cl
	epoch := cl.instEpoch.Load()
	if epoch == inc.instEpoch {
		return
	}
	inc.instEpoch = epoch
	cl.instMu.Lock()
	specs := append([]*instSpec(nil), cl.specs...)
	cl.instMu.Unlock()
	for _, sp := range specs {
		if _, open := inc.mux.Get(sp.id); open {
			continue
		}
		if _, dead := inc.mux.Reaped(sp.id); dead {
			continue
		}
		cl.instMu.Lock()
		skip := sp.resolved || sp.done[inc.n.id]
		cl.instMu.Unlock()
		if skip {
			// Finished here before a crash, or globally resolved: a fresh
			// open would resurrect a done instance. Stragglers are served by
			// peers' tombstones instead.
			continue
		}
		exp := sp.newExp()
		core := cl.newCore(inc, exp, sp.id)
		// Anchor the remote-activity clock where a fresh empty table means
		// "this node knows nothing yet", not "the instance is quiet": on a
		// joiner, and for a submitted instance, which may already run
		// elsewhere. Without the anchor the recovery path could adopt the
		// complement of an empty table (the whole root) while work simply
		// hasn't spread here. A boot-time or restarted node opens the boot
		// problem unanchored, as the simulator's restart does (ROADMAP item 7
		// measured anchoring it at +2 % work and +6 % time).
		if sp.id != 0 || inc.contacts != nil {
			core.NoteRemoteActivity(0)
		}
		e, ok := inc.mux.Open(sp.id, core, exp)
		if !ok {
			continue
		}
		e.Data = sp
		if sp.id == 0 {
			inc.boot = core
		}
		if sp.seedNode == inc.n || sp.seedNode.crashed.Load() {
			if sp.seeded.CompareAndSwap(false, true) {
				core.Seed(exp.Root())
			}
		}
	}
}

// noteInstanceDone records one node's termination detection for an
// instance, and wakes the Run loop to sweep. The record survives the node's
// later crash: detection happened.
func (cl *Cluster) noteInstanceDone(sp *instSpec, node NodeID, incumbent float64) {
	cl.instMu.Lock()
	if !sp.resolved && !sp.done[node] {
		sp.done[node] = true
		sp.optimum = min(sp.optimum, incumbent)
	}
	cl.instMu.Unlock()
	select {
	case cl.wake <- struct{}{}:
	default: // a sweep is already due
	}
}

// sweep resolves every instance that every node has crashed or detected —
// at least one detected, so a fully crashed cluster cannot "resolve" an
// unsolved instance — and reports whether the run is settled: every
// instance resolved, or no node left alive to resolve one. With stop set, a
// settled run is closed before the lock is released. Both are decided under
// stopMu, so no Restart, AddNode or SubmitRef lands between the verdict and
// what follows from it.
func (cl *Cluster) sweep(stop bool) bool {
	cl.stopMu.Lock()
	defer cl.stopMu.Unlock()
	alive := false
	for _, n := range cl.nodes {
		alive = alive || !n.crashed.Load()
	}
	settled := true
	cl.instMu.Lock()
	for _, sp := range cl.specs {
		if sp.resolved {
			continue
		}
		all, any := true, false
		for _, n := range cl.nodes {
			if sp.done[n.id] {
				any = true
			} else if !n.crashed.Load() {
				all = false
				break
			}
		}
		if all && any {
			sp.resolved = true
			close(sp.doneCh)
		} else {
			settled = false
		}
	}
	cl.instMu.Unlock()
	settled = settled || !alive
	if settled && stop {
		cl.closeLocked()
	}
	return settled
}
