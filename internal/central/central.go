// Package central implements the conventional centralized manager–worker
// parallel B&B of §3: a single manager maintains the tree and hands out
// tasks to workers. Reliability comes from checkpointing at the manager,
// which is assumed to sit on a reliable machine — the assumption the paper's
// fully decentralized design removes. The manager is also the scalability
// bottleneck: every expansion costs manager service time, so throughput
// saturates at roughly (node cost / service time) workers, which the
// centralized-baseline experiment demonstrates.
package central

import (
	"container/heap"
	"math"
	"slices"

	"gossipbnb/internal/btree"
	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/sim"
)

// Config parameterizes a centralized run over a lossless network with the
// paper's latency model.
type Config struct {
	// Workers is the number of worker processes (the manager is separate).
	Workers int
	Seed    int64
	Prune   bool
	// ServiceTime is the manager CPU cost to process one message
	// (bookkeeping + checkpoint write). Default 1 ms.
	ServiceTime float64
	// GrantBatch is how many problems one grant carries. Default 1.
	GrantBatch int
	// AssignTimeout re-queues work assigned to a worker that went silent
	// (worker crash recovery via the manager's checkpoint). Default 30 s.
	AssignTimeout float64
	// Crashes schedules worker crashes (worker indices 1..Workers; the
	// manager, node 0, is assumed reliable).
	Crashes []Crash
}

// Crash schedules a worker crash.
type Crash struct {
	Time   float64
	Worker int // 1-based worker index
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.ServiceTime <= 0 {
		c.ServiceTime = 1e-3
	}
	if c.GrantBatch <= 0 {
		c.GrantBatch = 1
	}
	if c.AssignTimeout <= 0 {
		c.AssignTimeout = 30
	}
	return c
}

// Result summarizes a centralized run.
type Result struct {
	Terminated bool
	Time       float64
	Optimum    float64
	OptimumOK  bool
	Expanded   int
	Redundant  int
	// ManagerUtilization is the fraction of the run the manager spent
	// processing messages — near 1.0 means the manager saturated.
	ManagerUtilization float64
	Net                nemesis.NetStats
}

// --- messages ----------------------------------------------------------------

type msgWant struct{}

func (msgWant) Size() int { return 5 }

type msgGrant struct {
	idxs      []int32
	incumbent float64
}

func (m msgGrant) Size() int { return 9 + 4*len(m.idxs) }

type msgResult struct {
	idx       int32
	incumbent float64
}

func (msgResult) Size() int { return 13 }

type msgDone struct{ incumbent float64 }

func (msgDone) Size() int { return 9 }

// --- manager -----------------------------------------------------------------

type item struct {
	idx   int32
	bound float64
}

type itemHeap []item

func (h itemHeap) Len() int            { return len(h) }
func (h itemHeap) Less(i, j int) bool  { return h[i].bound < h[j].bound }
func (h itemHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x interface{}) { *h = append(*h, x.(item)) }
func (h *itemHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

type assignment struct {
	idxs  []int32
	since float64
}

type manager struct {
	cfg       Config
	k         *sim.Kernel
	nw        *sim.Network
	tree      *btree.Tree
	pool      itemHeap
	assigned  map[sim.NodeID]*assignment
	waiting   []sim.NodeID // workers waiting for work
	incumbent float64
	busyUntil float64
	busyTotal float64
	expanded  int
	seen      []bool // tree nodes handed out at least once (redundancy)
	redundant int
	finished  bool
	doneAt    float64
}

// service charges the manager's per-message cost and returns the time at
// which the message's effect takes place — the queueing model that makes the
// manager a bottleneck.
func (m *manager) service() float64 {
	now := m.k.Now()
	if m.busyUntil < now {
		m.busyUntil = now
	}
	m.busyUntil += m.cfg.ServiceTime
	m.busyTotal += m.cfg.ServiceTime
	return m.busyUntil - now
}

func (m *manager) deliver(from sim.NodeID, msg sim.Message) {
	if m.finished {
		return
	}
	delay := m.service()
	switch t := msg.(type) {
	case msgWant:
		m.k.After(delay, func() { m.handleWant(from) })
	case msgResult:
		m.k.After(delay, func() { m.handleResult(from, t) })
	}
}

func (m *manager) handleWant(from sim.NodeID) {
	if m.finished {
		return
	}
	m.grantOrPark(from)
}

// grantOrPark hands work to a worker or parks it until work appears.
func (m *manager) grantOrPark(w sim.NodeID) {
	var idxs []int32
	for len(m.pool) > 0 && len(idxs) < m.cfg.GrantBatch {
		it := heap.Pop(&m.pool).(item)
		if m.cfg.Prune && it.bound >= m.incumbent {
			m.expandedDoneCheck()
			continue
		}
		idxs = append(idxs, it.idx)
	}
	if len(idxs) == 0 {
		m.waiting = append(m.waiting, w)
		m.expandedDoneCheck()
		return
	}
	if a := m.assigned[w]; a != nil {
		a.idxs = append(a.idxs, idxs...)
		a.since = m.k.Now()
	} else {
		m.assigned[w] = &assignment{idxs: append([]int32(nil), idxs...), since: m.k.Now()}
	}
	for _, idx := range idxs {
		if m.seen[idx] {
			m.redundant++
		}
		m.seen[idx] = true
	}
	m.nw.Send(0, w, msgGrant{idxs: idxs, incumbent: m.incumbent})
}

func (m *manager) handleResult(from sim.NodeID, r msgResult) {
	if r.incumbent < m.incumbent {
		m.incumbent = r.incumbent
	}
	a := m.assigned[from]
	if a != nil {
		for i, idx := range a.idxs {
			if idx == r.idx {
				a.idxs = append(a.idxs[:i], a.idxs[i+1:]...)
				break
			}
		}
		if len(a.idxs) == 0 {
			delete(m.assigned, from)
		} else {
			a.since = m.k.Now()
		}
	}
	m.expanded++
	tn := &m.tree.Nodes[r.idx]
	for b := 0; b < 2; b++ {
		if ch := tn.Children[b]; ch != btree.NoChild {
			bound := m.tree.Nodes[ch].Bound
			if !m.cfg.Prune || bound < m.incumbent {
				heap.Push(&m.pool, item{idx: ch, bound: bound})
			}
		}
	}
	// Serve parked workers.
	for len(m.waiting) > 0 && len(m.pool) > 0 {
		w := m.waiting[0]
		m.waiting = m.waiting[1:]
		m.grantOrPark(w)
	}
	m.expandedDoneCheck()
}

// expandedDoneCheck declares termination when no work is pooled or assigned.
func (m *manager) expandedDoneCheck() {
	if m.finished || len(m.pool) > 0 || len(m.assigned) > 0 {
		return
	}
	m.finished = true
	m.doneAt = m.k.Now()
	for w := sim.NodeID(1); w <= sim.NodeID(m.cfg.Workers); w++ {
		m.nw.Send(0, w, msgDone{incumbent: m.incumbent})
	}
}

// reassignTick requeues work assigned to silent (crashed) workers, restoring
// it from the checkpoint.
func (m *manager) reassignTick() {
	if m.finished {
		return
	}
	now := m.k.Now()
	var expired []sim.NodeID
	for w, a := range m.assigned {
		if now-a.since >= m.cfg.AssignTimeout {
			expired = append(expired, w)
		}
	}
	// Requeue in worker-id order, not map order: items of equal bound leave
	// the heap in the order they were pushed.
	slices.Sort(expired)
	for _, w := range expired {
		for _, idx := range m.assigned[w].idxs {
			heap.Push(&m.pool, item{idx: idx, bound: m.tree.Nodes[idx].Bound})
		}
		delete(m.assigned, w)
	}
	for len(m.waiting) > 0 && len(m.pool) > 0 {
		w := m.waiting[0]
		m.waiting = m.waiting[1:]
		m.grantOrPark(w)
	}
	m.k.After(m.cfg.AssignTimeout/2, m.reassignTick)
}

// --- worker -------------------------------------------------------------------

type worker struct {
	id        sim.NodeID
	k         *sim.Kernel
	nw        *sim.Network
	tree      *btree.Tree
	incumbent float64
	queue     []int32
	busy      bool
	crashed   bool
	done      bool
	reqOut    bool
}

func (w *worker) loop() {
	if w.busy || w.crashed || w.done {
		return
	}
	if len(w.queue) > 0 {
		idx := w.queue[0]
		w.queue = w.queue[1:]
		w.busy = true
		w.k.After(w.tree.Nodes[idx].Cost, func() {
			w.busy = false
			if w.crashed {
				return
			}
			tn := &w.tree.Nodes[idx]
			if tn.Feasible && tn.Bound < w.incumbent {
				w.incumbent = tn.Bound
			}
			w.nw.Send(w.id, 0, msgResult{idx: idx, incumbent: w.incumbent})
			w.loop()
		})
		return
	}
	if !w.reqOut {
		w.reqOut = true
		w.nw.Send(w.id, 0, msgWant{})
	}
}

func (w *worker) deliver(_ sim.NodeID, msg sim.Message) {
	if w.crashed {
		return
	}
	switch t := msg.(type) {
	case msgGrant:
		w.reqOut = false
		if t.incumbent < w.incumbent {
			w.incumbent = t.incumbent
		}
		w.queue = append(w.queue, t.idxs...)
	case msgDone:
		w.done = true
	}
	if !w.busy {
		w.loop()
	}
}

// Run simulates the centralized baseline.
func Run(tree *btree.Tree, cfg Config) Result {
	cfg = cfg.withDefaults()
	k := sim.New(cfg.Seed)
	nw := sim.NewNetwork(k, sim.PaperLatency())
	mgr := &manager{
		cfg: cfg, k: k, nw: nw, tree: tree,
		assigned:  map[sim.NodeID]*assignment{},
		incumbent: math.Inf(1),
		seen:      make([]bool, tree.Size()),
	}
	heap.Push(&mgr.pool, item{idx: 0, bound: tree.Nodes[0].Bound})
	nw.Register(0, mgr.deliver)
	workers := make([]*worker, cfg.Workers)
	for i := 1; i <= cfg.Workers; i++ {
		w := &worker{id: sim.NodeID(i), k: k, nw: nw, tree: tree, incumbent: math.Inf(1)}
		workers[i-1] = w
		nw.Register(w.id, w.deliver)
		k.At(0, w.loop)
	}
	k.After(cfg.AssignTimeout/2, mgr.reassignTick)
	for _, c := range cfg.Crashes {
		c := c
		if c.Worker < 1 || c.Worker > cfg.Workers {
			continue
		}
		k.At(c.Time, func() {
			nw.Crash(sim.NodeID(c.Worker))
			workers[c.Worker-1].crashed = true
		})
	}
	k.Run(1e9) // virtual seconds: a run that fails to terminate stops here

	res := Result{
		Terminated: mgr.finished,
		Time:       mgr.doneAt,
		Optimum:    mgr.incumbent,
		Expanded:   mgr.expanded,
		Redundant:  mgr.redundant,
		Net:        nw.Stats(),
	}
	if mgr.doneAt > 0 {
		res.ManagerUtilization = mgr.busyTotal / mgr.doneAt
	}
	res.OptimumOK = res.Terminated && res.Optimum == tree.Stats().Optimum
	return res
}
