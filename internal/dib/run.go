package dib

import (
	"container/heap"
	"math"

	"gossipbnb/internal/btree"
	"gossipbnb/internal/code"
	"gossipbnb/internal/sim"
)

// harness owns one DIB run.
type harness struct {
	cfg      Config
	k        *sim.Kernel
	nw       *sim.Network
	tree     *btree.Tree
	nodes    []*node
	expanded map[string]bool
	redos    int
	doneAt   float64
	finished bool
	optimum  float64
}

// node is one DIB machine.
type node struct {
	id sim.NodeID
	h  *harness

	pool        pool
	adoptions   map[*adoption]bool
	delegations map[int64]*delegation
	nextDelegID int64
	incumbent   float64

	busy       bool
	crashed    bool
	finished   bool
	reqPending bool
	reqWaiting bool
	reqTimer   sim.Event
	expandedN  int
	redundantN int
}

func newDIBNode(id sim.NodeID, h *harness) *node {
	return &node{
		id: id, h: h,
		adoptions:   map[*adoption]bool{},
		delegations: map[int64]*delegation{},
		incumbent:   math.Inf(1),
	}
}

func (n *node) dead() bool { return n.crashed || n.finished }

// loop picks the next activity.
func (n *node) loop() {
	if n.busy || n.dead() {
		return
	}
	cfg := &n.h.cfg
	for len(n.pool) > 0 {
		it := heap.Pop(&n.pool).(poolItem)
		if cfg.Prune && it.bound >= n.incumbent {
			n.finishNode(it.adopt) // eliminated: node fathomed
			continue
		}
		n.expand(it)
		return
	}
	// Idle: before asking for work, redo expired delegations (DIB failure
	// recovery: an idle machine redoes work it is responsible for whose
	// completion was never reported).
	if n.redoExpired() {
		n.loop()
		return
	}
	n.requestWork()
}

// expand pays the node cost, then branches or fathoms.
func (n *node) expand(it poolItem) {
	n.busy = true
	cost := n.h.tree.Nodes[it.idx].Cost
	n.h.k.After(cost, func() {
		n.busy = false
		if n.crashed {
			return
		}
		n.expandedN++
		n.h.noteExpansion(n, it.c)
		tn := &n.h.tree.Nodes[it.idx]
		if tn.Feasible && tn.Bound < n.incumbent {
			n.incumbent = tn.Bound
		}
		if tn.Leaf() {
			n.finishNode(it.adopt)
		} else {
			pushed := 0
			for b := uint8(0); b < 2; b++ {
				childIdx := tn.Children[b]
				childBound := n.h.tree.Nodes[childIdx].Bound
				if n.h.cfg.Prune && childBound >= n.incumbent {
					continue // eliminated at generation: not outstanding
				}
				heap.Push(&n.pool, poolItem{
					c:     it.c.Child(tn.BranchVar, b),
					idx:   childIdx,
					bound: childBound,
					adopt: it.adopt,
				})
				pushed++
			}
			// The node itself is done; its pushed children take its place.
			it.adopt.outstanding += pushed - 1
			if pushed == 0 {
				n.finishNode(it.adopt)
				n.loop()
				return
			}
		}
		n.loop()
	})
}

// finishNode decrements an adoption's outstanding count and, at zero,
// reports completion to the donor.
func (n *node) finishNode(a *adoption) {
	a.outstanding--
	if a.outstanding > 0 {
		return
	}
	delete(n.adoptions, a)
	if a.donor == n.id {
		// The root problem: DIB's termination. Machine 0 broadcasts.
		n.h.rootDone(n)
		return
	}
	n.h.nw.Send(n.id, a.donor, msgDone{id: a.id, incumbent: n.incumbent})
}

// redoExpired re-adopts the oldest delegation whose completion report is
// overdue. Returns true if something was re-queued.
func (n *node) redoExpired() bool {
	now := n.h.k.Now()
	var oldest *delegation
	var oldestID int64
	for id, d := range n.delegations {
		if !d.expired && now-d.since >= n.h.cfg.RedoTimeout {
			// A grant delegates several problems at one instant: the lowest
			// id goes first, so the choice does not follow map order.
			if oldest == nil || d.since < oldest.since || d.since == oldest.since && id < oldestID {
				oldest, oldestID = d, id
			}
		}
	}
	if oldest == nil {
		return false
	}
	// Redo the whole delegated subtree locally. The delegation record is
	// dropped: a late confirmation from a slow (not dead) delegatee is
	// ignored, and its work wasted — DIB's coarse recovery granularity.
	delete(n.delegations, oldestID)
	n.h.redos++
	heap.Push(&n.pool, poolItem{
		c:     oldest.c,
		idx:   oldest.idx,
		bound: n.h.tree.Nodes[oldest.idx].Bound,
		adopt: oldest.adopt,
	})
	return true
}

// requestWork asks a random machine for problems.
func (n *node) requestWork() {
	if n.dead() || n.reqPending || n.reqWaiting {
		return
	}
	if n.h.cfg.Procs == 1 {
		return // alone: either working or done
	}
	peers := n.h.cfg.Procs - 1
	target := n.h.k.Rand().Intn(peers)
	if sim.NodeID(target) >= n.id {
		target++
	}
	n.h.nw.Send(n.id, sim.NodeID(target), msgRequest{incumbent: n.incumbent})
	n.reqPending = true
	n.reqTimer = n.h.k.After(n.h.cfg.RequestTimeout, func() {
		if n.dead() {
			return
		}
		n.reqPending = false
		n.reqFailed()
	})
}

func (n *node) reqFailed() {
	if n.reqWaiting {
		return
	}
	n.reqWaiting = true
	n.h.k.After(n.h.cfg.RetryDelay, func() {
		n.reqWaiting = false
		if !n.dead() && !n.busy {
			n.loop()
		}
	})
}

// deliver handles one message (DIB machines also defer handling to idle
// moments; for simplicity messages are handled immediately — DIB's
// correctness does not depend on the deferral).
func (n *node) deliver(from sim.NodeID, msg sim.Message) {
	if n.crashed {
		return
	}
	switch t := msg.(type) {
	case msgRequest:
		n.observe(t.incumbent)
		n.handleRequest(from)
	case msgGrant:
		n.observe(t.incumbent)
		n.handleGrant(from, t)
	case msgDeny:
		n.observe(t.incumbent)
		if n.reqPending {
			n.reqPending = false
			n.reqTimer.Cancel()
			n.reqFailed()
		}
	case msgDone:
		n.observe(t.incumbent)
		if d, ok := n.delegations[t.id]; ok {
			delete(n.delegations, t.id)
			n.finishNode(d.adopt)
		}
	case msgFinished:
		n.observe(t.incumbent)
		n.finished = true
	}
	if !n.busy && !n.dead() {
		n.loop()
	}
}

func (n *node) observe(v float64) {
	if v < n.incumbent {
		n.incumbent = v
	}
}

// handleRequest grants half the pool, recording each granted problem as a
// delegation whose completion must be reported back.
func (n *node) handleRequest(from sim.NodeID) {
	cfg := &n.h.cfg
	if n.finished {
		n.h.nw.Send(n.id, from, msgFinished{incumbent: n.incumbent})
		return
	}
	if len(n.pool) < cfg.MinPoolToShare {
		n.h.nw.Send(n.id, from, msgDeny{incumbent: n.incumbent})
		return
	}
	k := len(n.pool) / 2
	if k > cfg.MaxShare {
		k = cfg.MaxShare
	}
	var probs []grantProblem
	for i := 0; i < k; i++ {
		it := heap.Pop(&n.pool).(poolItem)
		n.nextDelegID++
		id := n.nextDelegID
		n.delegations[id] = &delegation{
			c: it.c, idx: it.idx, to: from, adopt: it.adopt, since: n.h.k.Now(),
		}
		probs = append(probs, grantProblem{id: id, c: it.c})
	}
	n.h.nw.Send(n.id, from, msgGrant{problems: probs, incumbent: n.incumbent})
}

// handleGrant adopts the delegated problems.
func (n *node) handleGrant(from sim.NodeID, g msgGrant) {
	if n.reqPending {
		n.reqPending = false
		n.reqTimer.Cancel()
	}
	for _, p := range g.problems {
		idx, ok := n.h.tree.Locate(p.c)
		if !ok {
			continue
		}
		a := &adoption{id: p.id, donor: from, root: p.c, outstanding: 1}
		n.adoptions[a] = true
		heap.Push(&n.pool, poolItem{c: p.c, idx: idx, bound: n.h.tree.Nodes[idx].Bound, adopt: a})
	}
}

// --- harness -------------------------------------------------------------------

func (h *harness) noteExpansion(n *node, c code.Code) {
	key := c.Key()
	if h.expanded[key] {
		n.redundantN++
		return
	}
	h.expanded[key] = true
}

// rootDone fires when machine 0's root adoption completes.
func (h *harness) rootDone(n *node) {
	if h.finished {
		return
	}
	h.finished = true
	h.doneAt = h.k.Now()
	h.optimum = n.incumbent
	n.finished = true
	for i := range h.nodes {
		if sim.NodeID(i) != n.id {
			h.nw.Send(n.id, sim.NodeID(i), msgFinished{incumbent: n.incumbent})
		}
	}
}

// Run simulates DIB solving the given basic tree.
func Run(tree *btree.Tree, cfg Config) Result {
	cfg = cfg.withDefaults()
	h := &harness{
		cfg:      cfg,
		k:        sim.New(cfg.Seed),
		tree:     tree,
		expanded: make(map[string]bool, tree.Size()),
		optimum:  math.Inf(1),
	}
	h.nw = sim.NewNetwork(h.k, cfg.Latency)
	h.nw.SetLoss(cfg.Loss)
	h.nodes = make([]*node, cfg.Procs)
	for i := range h.nodes {
		h.nodes[i] = newDIBNode(sim.NodeID(i), h)
		n := h.nodes[i]
		h.nw.Register(sim.NodeID(i), n.deliver)
	}
	// Machine 0 adopts the original problem and is its own donor.
	rootAdopt := &adoption{id: 0, donor: 0, root: code.Root(), outstanding: 1}
	h.nodes[0].adoptions[rootAdopt] = true
	h.nodes[0].pool = pool{{c: code.Root(), idx: 0, bound: tree.Nodes[0].Bound, adopt: rootAdopt}}
	for i := range h.nodes {
		n := h.nodes[i]
		h.k.At(0, n.loop)
	}
	for _, c := range cfg.Crashes {
		c := c
		if c.Node < 0 || c.Node >= cfg.Procs {
			continue
		}
		h.k.At(c.Time, func() {
			h.nw.Crash(sim.NodeID(c.Node))
			h.nodes[c.Node].crashed = true
		})
	}
	h.k.Run(cfg.MaxTime)

	res := Result{
		Terminated: h.finished,
		Time:       h.doneAt,
		Optimum:    h.optimum,
		Unique:     len(h.expanded),
		Redos:      h.redos,
		Net:        h.nw.Stats(),
	}
	for _, n := range h.nodes {
		res.Expanded += n.expandedN
	}
	res.Redundant = res.Expanded - res.Unique
	res.OptimumOK = res.Terminated && res.Optimum == tree.Stats().Optimum
	return res
}
