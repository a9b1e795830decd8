package dbnb

import (
	"cmp"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"slices"

	"gossipbnb/internal/code"
	"gossipbnb/internal/instance"
	"gossipbnb/internal/metrics"
	"gossipbnb/internal/protocol"
	"gossipbnb/internal/sim"
	"gossipbnb/internal/trace"
)

// inMsg is a queued incoming message (the paper's processes check pending
// messages only after finishing the current subproblem). at is the virtual
// arrival time — the sort key that makes batch handling canonical.
type inMsg struct {
	from sim.NodeID
	at   float64
	msg  protocol.Msg
}

// arrivalOrder is the canonical order of a delivery batch: (arrival time,
// sender). The driver sorts with slices.SortStableFunc, which is a zero-
// allocation insertion sort on the usual handful of messages and stays
// O(n log n) when same-time traffic lands thousands deep on a busy process
// (every learner's re-broadcast once did) — where a plain insertion sort
// went quadratic. Any stable sort on
// this key yields the same sequence, so event-order hashes do not depend on
// the algorithm.
func arrivalOrder(a, b inMsg) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.from, b.from)
}

// node drives one protocol.Core under the virtual-time simulator: the
// execution context of one (process, instance) pair. A single-problem run has
// one context per process; a multi-instance run gives every instance its own
// context on every process (own busy periods, own timers, own randomness
// stream), sharing only the process's network endpoint. The split of
// responsibilities is strict: every protocol decision — what to expand,
// when to report, whom to probe, when to presume work lost — lives in the
// shared core; the node owns only what the simulated substrate defines:
// busy periods charged via the kernel, timers, modeled CPU costs, metrics
// and trace accounting, idle spans, and crash delivery.
type node struct {
	id   sim.NodeID
	h    *harness
	spec *spec       // the instance this context solves
	sh   *shardCtx   // owner shard: the kernel/network this node lives on
	k    *sim.Kernel // == sh.k, the node's scheduling clock
	core *protocol.Core
	// exp is this context's own code resolver, built on first use
	// (expander): most contexts of a large run never expand, never resolve
	// a grant and never seed the root, so they never pay for one. The core
	// and the mux entry hold the node itself as their protocol.Expander.
	exp protocol.Expander
	// mux is the process's instance demultiplexer in multi-instance runs, nil
	// in single-problem ones. It is the one mark of a tagged context: messages
	// go out wrapped in an InstMsg, the randomness stream derives from the
	// instance too, and termination reaps the instance from the mux.
	mux *instance.Mux

	started bool // the instance's submission time was reached
	busy    bool
	crashed bool
	done    bool // observed the core's termination detection
	// wake marks a pending same-time wake event. Deliveries never process the
	// inbox directly: the first arrival at a virtual instant schedules a
	// wake at that same instant, which — because every
	// simultaneous delivery is already in the kernel queue by then (the
	// latency floor is at least the mesh lookahead) — fires after the WHOLE
	// same-time batch has landed, so the batch can be handled in canonical
	// order no matter which shards the senders ran on.
	wake       bool
	detectedAt float64
	inbox      []inMsg

	// rng drives every stochastic choice this context makes (timer stagger,
	// report fanout targets, recovery jitter): an independent stream (see
	// newNode) held in the node itself, so a context's decisions do not
	// depend on how processes are sharded — the root of the shard-count
	// invariance property.
	pcg pcgSource
	rng rand.Rand

	// incarn is the crash-restart incarnation: every busy-period event
	// carries it (event) and is discarded if the node has been reborn since —
	// a pre-crash expansion finishing after the restart must not leak the
	// dead incarnation's state into the fresh core.
	incarn    int
	crashedAt float64
	// cntPrior accumulates dead incarnations' protocol counters, so the
	// experiment tables count messages a crashed process really sent. nil
	// until the first restart.
	cntPrior *protocol.Counters

	// timer is the context's one kernel timer: it calls the core's Tick at
	// its WakeAt, and is cancelled at crash and at termination. It fires
	// under tie, a kernel sequence number reserved whenever the core's
	// StarveAt (last seen: starveAt) moves; arm says why.
	timer    sim.Event
	starveAt float64
	tie      uint64

	// The busy-period events read their inputs from the pend* fields below —
	// safe because the busy flag admits at most one outstanding busy period
	// per incarnation, and a stale fire from a dead incarnation is discarded
	// before it touches them.
	pendItem     protocol.Item // expansion in flight
	pendStart    float64       // busy-period start (expand/drain/recover)
	pendComm     float64       // drain: modeled communication cost
	pendContract float64       // drain: modeled contraction cost
	pendPlan     []code.Code   // recovery plan awaiting adoption

	idleStart float64 // <0 when not idle
	met       *metrics.Node

	// peersCache is the cached predetermined-pool view (every process but
	// this one): this context's window of the harness ring where there is
	// one — rebuilding the view on every core decision is O(procs), ruinous
	// at the 1000-process stress tier. Otherwise it is rebuilt only when the
	// scheduled member count moves past a join epoch; viewSize is the epoch
	// (member count) the cache was built for, 0 = unbuilt.
	peersCache []protocol.NodeID
	viewSize   int
}

// Node events. A node's kernel events carry the node as their argument
// instead of a closure of the node's own: the harness binds one callback
// (harness.fire) for all of them, and event packs into the argument the
// node's place in harness.nodes (low 32 bits), what the event does (the
// next 3) and the incarnation that scheduled it (the rest).
const (
	evWake = iota
	evTick
	evActivate
	evExpandDone
	evDrainDone
	evRecoverDone
	evBeat // the process's heartbeat round (harness.beat)
)

// event is the kernel argument of n's event of the given kind.
func (n *node) event(kind int) int {
	slot := int(n.id)*len(n.h.specs) + n.spec.idx
	return (n.incarn<<3|kind)<<32 | slot
}

// fire runs the node event a: busy-period ends of a dead incarnation are
// discarded, everything else goes to its node.
func (h *harness) fire(a int) {
	n := h.nodes[uint32(a)]
	kind, gen := a>>32&7, a>>35
	switch kind {
	case evWake:
		n.wakeup()
	case evTick:
		n.tick()
	case evActivate:
		n.activate()
	case evBeat:
		h.beat(n.id)
	default:
		if gen != n.incarn {
			return // the node was reborn; this busy period died with its incarnation
		}
		switch kind {
		case evExpandDone:
			n.expandDone()
		case evDrainDone:
			n.drainDone()
		case evRecoverDone:
			n.recoverDone()
		}
	}
}

// record is the owner shard's record of this context's instance.
func (n *node) record() *rec { return &n.sh.recs[n.spec.idx] }

// nodeSender transmits the core's canonical messages over the simulated
// network, charging each send's modeled CPU overhead to the activity it
// serves. Event counts (reports, tables, requests, work sent) are NOT
// tallied here — the core counts them at protocol level (so e.g. the
// termination broadcast is not a "work report" in the experiment tables)
// and Run folds them into the metrics.
type nodeSender struct{ n *node }

// wire is m as it travels: bare for the single untagged instance (instance
// 0 adds no header bytes anyway), tagged with the instance id otherwise.
func (s nodeSender) wire(m protocol.Msg) sim.Message {
	if s.n.mux == nil {
		return m
	}
	return protocol.InstMsg{Instance: s.n.spec.id, Msg: m}
}

func (s nodeSender) Send(to protocol.NodeID, m protocol.Msg) {
	n := s.n
	n.sh.nw.Send(n.id, sim.NodeID(to), s.wire(m))
	over := commOverhead
	switch m.(type) {
	case protocol.Report, protocol.TableMsg,
		protocol.DigestReport, protocol.SubtreeRequest, protocol.SubtreeReply:
		n.met.Add(metrics.Comm, over)
	case protocol.WorkRequest, protocol.WorkGrant, protocol.WorkDeny:
		n.met.Add(metrics.LB, over)
	}
}

// Broadcast implements protocol.BroadcastSender for the termination
// broadcast of §5.4, which a context sends only if it detected termination
// itself. Where the harness has a ring the fan-out goes through the mesh's
// ring-range group path: the peer view IS the ring minus the sender, so a
// detector's procs − 1 deliveries are one group event per destination shard
// instead of procs − 1 pending events. Where it has none (harness.ring says
// when) the view is not that window, so loop Send — exactly what the core
// would do with a plain Sender.
func (s nodeSender) Broadcast(peers []protocol.NodeID, m protocol.Msg) {
	n := s.n
	if n.h.ring == nil {
		for _, p := range peers {
			s.Send(p, m)
		}
		return
	}
	n.sh.nw.BroadcastRange(n.id, int(n.id)+1, len(peers), s.wire(m))
	over := commOverhead * float64(len(peers))
	switch m.(type) {
	case protocol.Report, protocol.TableMsg:
		n.met.Add(metrics.Comm, over)
	default:
		n.met.Add(metrics.LB, over)
	}
}

// pcgSource is a mesh context's randomness stream: math/rand/v2's PCG — 16
// bytes of state, seeded in a few multiplies — behind the math/rand.Source64
// the *rand.Rand call sites use. rand.NewSource would give every context a
// 4.9 KB lagged-Fibonacci state that takes ~13 µs to seed: at 10 000
// processes that is 49 MB and 0.13 s per run for streams most contexts draw
// from a handful of times.
type pcgSource struct{ randv2.PCG }

func (s *pcgSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed completes rand.Source; nothing reseeds a context's stream.
func (s *pcgSource) Seed(seed int64) { s.PCG.Seed(uint64(seed), 0) }

func newNode(id sim.NodeID, h *harness, sp *spec) *node {
	sh := h.shardOf(int(id))
	n := &node{
		id: id, h: h, spec: sp, sh: sh, k: sh.k,
		idleStart: -1, met: &sp.met.Nodes[id], tie: sh.k.Reserve(),
	}
	if h.muxes != nil {
		n.mux = h.muxes[id]
	}
	// The stream depends only on (run seed, process id) — and, for a tagged
	// context, on (instance seed, instance slot) — never on the shard layout
	// or on what other instances do: a context's stochastic choices are
	// shard- and isolation-invariant.
	seed := h.cfg.Seed
	if n.mux != nil {
		seed = sim.DeriveSeed(seed^sp.seed, 1_000_003+sp.idx)
	}
	n.pcg.PCG.Seed(uint64(sim.DeriveSeed(seed, int(id))), uint64(id))
	n.rng = *rand.New(&n.pcg)
	if h.ring != nil {
		// The static peer view is a window into the shared doubled ring:
		// every process but this one, O(1) extra memory per node.
		n.peersCache = h.ring[int(id)+1 : int(id)+h.cfg.Procs]
	}
	n.initCore()
	if n.mux != nil {
		e, ok := n.mux.Open(sp.id, n.core, n)
		if !ok {
			panic("dbnb: duplicate instance id")
		}
		e.Data = n
	}
	return n
}

// initCore builds a fresh protocol core over the node — at construction and
// again at every crash-restart (a rebooted process keeps nothing but its
// identity and the initial problem data).
func (n *node) initCore() {
	h := n.h
	cfg := &h.cfg
	n.core = protocol.New(protocol.NodeID(n.id), protocol.Config{
		Select:           cfg.Select,
		Prune:            cfg.Prune,
		ReportBatch:      cfg.ReportBatch,
		ReportFanout:     cfg.ReportFanout,
		ReportTimeout:    cfg.ReportTimeout,
		AdaptiveReports:  cfg.AdaptiveReports,
		MinPoolToShare:   cfg.MinPoolToShare,
		RetryDelay:       cfg.retryDelay,
		RecoveryPatience: cfg.RecoveryPatience,
		RecoveryQuiet:    cfg.RecoveryQuiet,
		DiffGossip:       cfg.DiffGossip,
	}, protocol.Deps{
		Clock:         n.k,
		Sender:        nodeSender{n},
		Expander:      n,
		Peers:         n.peerView,
		Rand:          func(m int) int { return n.rng.Intn(m) },
		RandFloat:     func() float64 { return n.rng.Float64() },
		OnComplete:    n.noteCompletion,
		OnTableChange: n.observeTable,
	})
}

// expander returns the context's code resolver, building it over the initial
// data on first use.
func (n *node) expander() protocol.Expander {
	if n.exp == nil {
		n.exp = n.spec.w.newExpander()
	}
	return n.exp
}

// Locate, Root and Outcome make the node the protocol.Expander its core and
// mux entry hold: each is its expander's, built on first use.
func (n *node) Locate(c code.Code) (protocol.Item, bool) { return n.expander().Locate(c) }

func (n *node) Root() protocol.Item { return n.expander().Root() }

func (n *node) Outcome(it protocol.Item) protocol.Outcome { return n.expander().Outcome(it) }

// peerView is the process's view: its member's under UseMembership, else
// the predetermined pool. The core reads the returned slice without retaining
// or mutating it, so neither is copied: the member's is its own, and the
// pool's is cached — a window of the shared ring assigned at construction, or
// an epoch-built list where there is no ring.
func (n *node) peerView() []protocol.NodeID {
	if n.h.agents == nil {
		if n.h.ring == nil {
			// The view is every process scheduled to exist at this node's
			// current clock. The cache is rebuilt only when the clock crosses
			// a join epoch (never, without joins), so between epochs the view
			// read stays O(1) and allocation-free.
			if m := n.h.memberCountAt(n.k.Now()); m != n.viewSize {
				n.peersCache = n.peersCache[:0]
				for i := 0; i < m; i++ {
					if sim.NodeID(i) != n.id {
						n.peersCache = append(n.peersCache, protocol.NodeID(i))
					}
				}
				n.viewSize = m
			}
		}
		return n.peersCache
	}
	return n.h.agents[n.id].m.Peers()
}

// --- the main loop ----------------------------------------------------------

// loop is invoked whenever the node becomes free: after a work unit, after
// processing messages, after a timer. The core decides the next activity;
// the loop charges its cost.
func (n *node) loop() {
	if !n.started || n.busy || n.crashed {
		return
	}
	if len(n.inbox) > 0 {
		n.drainInbox()
		return
	}
	if n.done {
		return
	}
	it, st := n.core.Next()
	switch st {
	case protocol.Expand:
		n.endIdle()
		n.expand(it)
	case protocol.Terminated:
		n.onTerminated()
	case protocol.Starved:
		// Out of work: dynamic load balancing, then (if it keeps failing)
		// failure recovery.
		n.beginIdle()
		n.requestWork()
	}
}

// expand pays the workload's modeled node cost, then reports the branching
// outcome the expander computes to the core. The in-flight item rides in
// pendItem/pendStart rather than a capture closure — the busy flag admits
// only one expansion per incarnation, and harness.fire discards stale fires
// from dead incarnations before expandDone reads them.
func (n *node) expand(it protocol.Item) {
	cost := n.spec.w.costOf(it) * n.h.cfg.CostFactor
	n.busy = true
	n.pendItem = it
	n.pendStart = n.k.Now()
	n.k.AfterArg(cost, n.h.fireFn, n.event(evExpandDone))
}

func (n *node) expandDone() {
	n.busy = false
	if n.crashed {
		return
	}
	it, start := n.pendItem, n.pendStart
	now := n.k.Now()
	n.met.Add(metrics.BB, now-start)
	n.h.cfg.Trace.Add(int(n.id), trace.Compute, start, now)
	n.noteExpansion(it.Code)
	n.core.OnExpanded(it, n.Outcome(it), now-start)
	n.loop()
}

// --- activation -------------------------------------------------------------

// activate brings the context up at its instance's submission time: the root
// seeded at the designated process (everyone else pulls work through the
// load-balancing mechanism), fresh activity evidence — a context joining an
// instance submitted into a running cluster must not read its empty table as
// global quiescence; at time 0 this is a no-op — and the main loop.
func (n *node) activate() {
	n.started = true
	n.core.NoteRemoteActivity(0)
	if n.spec.seedNode == int(n.id) {
		n.core.Seed(n.Root())
	}
	n.loop()
}

// --- load balancing and recovery ---------------------------------------------

// requestWork lets the core run its starvation decision, then arranges the
// substrate side: the recovery busy period, or the timer for whenever the
// core next wants to be called.
func (n *node) requestWork() {
	if n.core.Starve() == protocol.StarveRecover {
		n.recover()
		return
	}
	n.arm()
}

// arm points the timer at the core's WakeAt, after every call that can move
// it, and leaves a timer that is already right alone. A new StarveAt draws
// the tie at once, even while a report check or push holds the timer, so
// that probes of different contexts due at one instant go out in the order
// their deadlines were set — the order the network's chaos stream is drawn
// in, whatever periodic duty fired in between.
func (n *node) arm() {
	at := n.core.WakeAt()
	if s := n.core.StarveAt(); s != n.starveAt {
		if n.starveAt = s; !math.IsInf(s, 1) {
			n.tie = n.k.Reserve()
		}
	}
	if t, ok := n.timer.When(); ok && t == at {
		return
	}
	n.timer.Cancel()
	if !math.IsInf(at, 1) {
		n.timer = n.k.AtSeqArg(at, n.tie, n.h.fireFn, n.event(evTick))
	}
}

// tick is the timer: the core performs whatever is due, busy or not, the
// timer moves on to its next WakeAt, and an idle (starving) context resumes
// the loop — the next probe if a pace ran out, else Starve waits on.
func (n *node) tick() {
	n.core.Tick()
	if n.arm(); n.idleStart >= 0 {
		n.loop()
	}
}

// recover charges the table-complement scan as contraction time, then lets
// the core adopt the planned regions (§5.3.2 failure recovery).
func (n *node) recover() {
	if n.crashed || n.done {
		return
	}
	plan := n.core.PlanRecovery()
	if len(plan) == 0 {
		n.loop() // table is complete; loop will detect termination
		return
	}
	scanCost := contractPerCode * float64(n.core.Table().Len()+1)
	n.busy = true
	n.pendPlan = plan
	n.pendStart = n.k.Now()
	n.pendContract = scanCost
	n.endIdle()
	n.k.AfterArg(scanCost, n.h.fireFn, n.event(evRecoverDone))
}

func (n *node) recoverDone() {
	n.busy = false
	if n.crashed {
		return
	}
	plan, start := n.pendPlan, n.pendStart
	n.pendPlan = nil
	n.met.Add(metrics.Contract, n.pendContract)
	n.h.cfg.Trace.Add(int(n.id), trace.Recover, start, n.k.Now())
	n.core.Adopt(plan)
	n.loop()
}

// --- message handling ---------------------------------------------------------

// deliver is the network handler: queue while busy, otherwise process now.
// A single-instance process registers it directly; a multi-instance process
// routes through its mux first (harness.handler), so a tagged context only
// ever sees its own instance's messages — and none once it terminated, when
// the reaped instance's tombstone answers instead.
func (n *node) deliver(from sim.NodeID, msg sim.Message) {
	if n.crashed {
		return
	}
	pm, ok := msg.(protocol.Msg)
	if !ok || n.h.agents != nil && n.h.hear(n.id, from, pm) {
		return
	}
	if n.done {
		// Fast drop at terminated processes: a done node's table is
		// complete, so reports, tables and grants teach it nothing
		// — their merges would all be no-ops — and denials answer requests
		// it no longer has outstanding. Only a WorkRequest still matters: a
		// straggler probing for work needs the root-report answer that tells
		// it the computation is over. What lands here is the forwarded root
		// reports of the learners — ReportFanout per process, most of them
		// addressed to a process that already knows — plus gossip still in
		// flight; each costs a type switch instead of a queued batch, a
		// sort and a busy period.
		if _, isReq := pm.(protocol.WorkRequest); !isReq {
			return
		}
	}
	n.inbox = append(n.inbox, inMsg{from: from, at: n.k.Now(), msg: pm})
	// Defer processing to a wake event at this same virtual instant. Every
	// other delivery at this time is already in the kernel queue (anything a
	// shard fires now can only produce arrivals at least one lookahead in the
	// future, and earlier cross-shard mail was drained at the last barrier),
	// so the wake fires after the full same-time batch — which drainInbox
	// then orders canonically. Processing on the first arrival instead would
	// replay the kernel's tie order, which depends on the shard count.
	if !n.busy && !n.wake {
		n.wake = true
		n.k.AfterArg(0, n.h.fireFn, n.event(evWake))
	}
}

// wakeup resumes the loop after the same-time delivery batch has landed.
func (n *node) wakeup() {
	n.wake = false
	if n.busy || n.crashed {
		return
	}
	n.loop()
}

// drainInbox feeds all queued messages to the core, charging their modeled
// CPU cost as one busy period, then resumes the loop.
func (n *node) drainInbox() {
	// Canonical batch order: arrival times and per-sender send order are
	// invariant in the shard count; the raw append order is not — it follows
	// kernel tie-breaking, which differs once simultaneous senders live on
	// different shards.
	slices.SortStableFunc(n.inbox, arrivalOrder)
	commCost, contractCost, lbCost := 0.0, 0.0, 0.0
	// Handling a message never delivers another one synchronously (sends go
	// through the kernel), so the batch is fixed at entry: walk it by index
	// and reset, reusing the backing array. The previous head-slicing
	// (inbox = inbox[1:]) re-allocated and memmoved the queue constantly —
	// the single largest CPU sink in the 1000-process stress profile.
	for i := 0; i < len(n.inbox); i++ {
		m := n.inbox[i]
		commCost += commOverhead
		switch t := m.msg.(type) {
		case protocol.Report:
			contractCost += contractPerCode * float64(t.Len())
		case protocol.TableMsg:
			contractCost += contractPerCode * float64(t.Len())
		case protocol.DigestReport:
			// Merging the delta plus one digest comparison.
			contractCost += contractPerCode * float64(t.Len()+1)
		case protocol.SubtreeRequest:
			// One trie descent to the requested prefix.
			contractCost += contractPerCode
		case protocol.SubtreeReply:
			// Merging the pulled subtree (branch replies have no codes and
			// cost the single digest comparison).
			contractCost += contractPerCode * float64(t.Len()+1)
		case protocol.WorkGrant:
			lbCost += commOverhead * float64(1+len(t.Codes)/8)
		}
		n.core.HandleMessage(protocol.NodeID(m.from), m.msg)
		n.arm() // an answer moves the deadline to a pace, or clears it
	}
	n.inbox = n.inbox[:0]
	n.met.Add(metrics.LB, lbCost)
	n.busy = true
	n.pendStart = n.k.Now()
	n.pendComm = commCost
	n.pendContract = contractCost
	n.endIdle()
	n.k.AfterArg(commCost+contractCost, n.h.fireFn, n.event(evDrainDone))
}

func (n *node) drainDone() {
	n.busy = false
	if n.crashed {
		return
	}
	commCost, contractCost, start := n.pendComm, n.pendContract, n.pendStart
	n.met.Add(metrics.Comm, commCost)
	n.met.Add(metrics.Contract, contractCost)
	now := n.k.Now()
	if contractCost > 0 {
		n.h.cfg.Trace.Add(int(n.id), trace.Contract, start+commCost, now)
	}
	if commCost > 0 {
		n.h.cfg.Trace.Add(int(n.id), trace.Comm, start, start+commCost)
	}
	n.loop()
}

// observeTable records the table's encoded size after every mutation, so the
// storage peak is exact.
func (n *node) observeTable() {
	n.met.ObserveTable(n.core.Table().EncodedSize())
}

// noteExpansion tracks redundant work: expansions of subproblems some
// context of this instance already expanded. The ledger is a trie of codes
// (ctree.Set), so a first-time expansion adds a vertex or two to its arena.
// Runs dedup within each shard and union the ledgers after the run, so Unique
// is exact; only the per-node Redundant tallies become shard-local
// approximations. Every code here came out of the expander, so
// none is refused for branching on another variable than the ledger holds.
func (n *node) noteExpansion(c code.Code) {
	if n.h.ghost != nil {
		n.h.ghost(n, c)
	}
	if present, _ := n.record().expanded.Add(c); present {
		n.met.Redundant++
	}
}

// noteCompletion maintains the union of the instance's completion
// information; its peak encoded size is the "one shared copy" baseline against
// which replicated storage is called redundant. The union and its peak are
// per shard (rec.uniquePeak); fold reports the largest.
func (n *node) noteCompletion(c code.Code) {
	r := n.record()
	r.completions++
	r.union.Insert(c)
	r.uniquePeak = max(r.uniquePeak, r.union.EncodedSize())
}

// --- termination ---------------------------------------------------------------

// onTerminated records the core's termination (§5.4): the core already
// broadcast or forwarded the final root report; the driver settles the books
// and, as at a crash, cancels the timer — a terminated core wants no call.
func (n *node) onTerminated() {
	n.done = true
	n.detectedAt = n.k.Now()
	n.endIdle()
	n.timer.Cancel()
	n.record().noteTermination(n.detectedAt)
	if n.h.agents != nil {
		n.h.settle(n.id)
	}
	if n.mux != nil {
		// A finished instance leaves the process's routing table: the
		// tombstone answers straggler work requests, and the core's table
		// arenas return to the pool for the next staggered instance. The
		// untagged instance has no successor to hand them to and keeps
		// answering through its core.
		n.mux.Reap(n.spec.id)
	}
}

// --- idle accounting -----------------------------------------------------------

func (n *node) beginIdle() {
	if n.idleStart < 0 {
		n.idleStart = n.k.Now()
	}
}

func (n *node) endIdle() {
	if n.idleStart >= 0 {
		now := n.k.Now()
		n.met.Add(metrics.Idle, now-n.idleStart)
		n.h.cfg.Trace.Add(int(n.id), trace.Idle, n.idleStart, now)
		n.idleStart = -1
	}
}

// crash halts the context (crash-stop; a scheduled Restart turns it into
// crash-restart), as part of a whole-process failure or scoped to its
// instance. The timer is cancelled so a later rebirth can arm a fresh one
// for its fresh core.
func (n *node) crash() {
	if n.crashed || n.done {
		// Already down, or already played its part in §5.4: a context that
		// detected termination has nothing left to fail, and marking it
		// crashed would erase its detection from the result.
		return
	}
	n.endIdle()
	n.crashed = true
	n.crashedAt = n.k.Now()
	n.inbox = nil
	n.timer.Cancel()
	if n.h.agents != nil {
		n.h.settle(n.id)
	}
}

// counters is the protocol event tallies of every incarnation so far: the
// live core's, merged into the dead ones' where there were any.
func (n *node) counters() protocol.Counters {
	if n.cntPrior == nil {
		return n.core.Counters()
	}
	return n.cntPrior.Merge(n.core.Counters())
}

// restart reboots a crashed node under its old identity (§5.2 rejoin): an
// empty table, an empty pool, a fresh expander over the initial data (built
// on its first use), and nothing else — the process rebuilds purely from the
// reports, tables, and grants it receives. The incarnation counter orphans
// every busy-period event the dead incarnation left behind.
func (n *node) restart() {
	if !n.crashed {
		// Never crashed, or the crash found the context already terminated
		// and left it alone: it played its part in §5.4, and rebooting it
		// would re-enter a finished computation. It stays down.
		return
	}
	n.h.cfg.Trace.Add(int(n.id), trace.Dead, n.crashedAt, n.k.Now())
	cnt := n.counters()
	n.cntPrior = &cnt
	n.incarn++
	n.crashed = false
	n.busy = false
	n.inbox = nil
	n.idleStart = -1
	n.exp = nil // the next use builds a fresh one over the initial data
	n.initCore()
	if n.mux != nil {
		// The mux entry follows the live core, so the eventual reap reads
		// its incumbent and releases its tables, not the dead incarnation's.
		if e, ok := n.mux.Get(n.spec.id); ok {
			e.Core = n.core
		}
	}
	if n.h.agents != nil {
		n.h.settle(n.id) // rejoins the group if the process had left it
	}
	// Stagger the fresh core's periodic chains like at boot and resume the
	// main loop.
	n.core.Stagger(n.k.Now())
	n.arm()
	n.loop()
}
