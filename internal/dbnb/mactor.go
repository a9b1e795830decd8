package dbnb

import (
	"math/rand"
	"slices"

	"gossipbnb/internal/code"
	"gossipbnb/internal/instance"
	"gossipbnb/internal/metrics"
	"gossipbnb/internal/protocol"
	"gossipbnb/internal/sim"
)

// mactor drives one instance's protocol core on one simulated process — the
// multi-instance counterpart of node. The responsibility split is the same:
// protocol decisions live in the shared core; the actor owns what the
// substrate defines — busy periods, timers, modeled CPU costs, metrics,
// crash delivery — all scoped to its instance. Deliveries always go through
// the same-time wake event and the canonical (arrival, sender) batch order,
// the discipline that makes sharded runs invariant in the shard count.
type mactor struct {
	nid   sim.NodeID
	spec  *mspec
	h     *mharness
	sh    *mshard
	k     *sim.Kernel
	core  *protocol.Core
	exp   protocol.Expander
	entry *instance.Entry // this actor's mux entry; Core updated on restart

	// rng derives from (seed, instance, process) only — see mspec.actorSeed.
	rng *rand.Rand

	started    bool // activation (instance submission time) reached
	busy       bool
	crashed    bool
	done       bool
	detectedAt float64
	inbox      []inMsg
	wake       bool

	incarn   int
	cntPrior protocol.Counters

	reqWaiting  bool
	reqTimer    sim.Event
	reportTimer sim.Event
	tableTimer  sim.Event

	reportTickFn  func()
	tableTickFn   func()
	wakeFn        func()
	expandDoneFn  func(int)
	drainDoneFn   func(int)
	recoverDoneFn func(int)
	paceDoneFn    func(int)
	reqTimeoutFn  func(int)

	pendItem     protocol.Item
	pendStart    float64
	pendComm     float64
	pendContract float64
	pendPlan     []code.Code

	tableOps  int
	idleStart float64
	met       *metrics.Node
}

// actorSender transmits an instance core's messages over the shared network,
// tagged with the instance ID, charging each send's modeled CPU overhead to
// the activity it serves on the instance's own metrics.
type actorSender struct{ a *mactor }

func (s actorSender) Send(to protocol.NodeID, m protocol.Msg) {
	a := s.a
	a.sh.nw.Send(a.nid, sim.NodeID(to), protocol.InstMsg{Instance: a.spec.id, Msg: m})
	over := a.h.cfg.CommOverhead
	switch m.(type) {
	case protocol.Report, protocol.TableMsg,
		protocol.DigestReport, protocol.SubtreeRequest, protocol.SubtreeReply:
		a.met.Add(metrics.Comm, over)
	case protocol.WorkRequest, protocol.WorkGrant, protocol.WorkDeny:
		a.met.Add(metrics.LB, over)
	}
}

func newActor(id sim.NodeID, h *mharness, sh *mshard, spec *mspec) *mactor {
	a := &mactor{
		nid: id, spec: spec, h: h, sh: sh, k: sh.k,
		exp:       spec.w.newExpander(),
		rng:       rand.New(rand.NewSource(spec.actorSeed(h.cfg.Seed, int(id)))),
		idleStart: -1,
		met:       &h.met.At(spec.idx).Nodes[id],
	}
	a.reportTickFn = a.reportTick
	a.tableTickFn = a.tableTick
	a.wakeFn = a.wakeup
	a.expandDoneFn = a.expandDone
	a.drainDoneFn = a.drainDone
	a.recoverDoneFn = a.recoverDone
	a.paceDoneFn = a.paceDone
	a.reqTimeoutFn = a.reqTimeout
	a.initCore()
	return a
}

// initCore builds a fresh protocol core — at construction and again at every
// instance-scoped crash-restart.
func (a *mactor) initCore() {
	cfg := &a.h.cfg
	a.core = protocol.New(protocol.NodeID(a.nid), protocol.Config{
		Select:           cfg.Select,
		Prune:            cfg.Prune,
		ReportBatch:      cfg.ReportBatch,
		ReportFanout:     cfg.ReportFanout,
		ReportTimeout:    cfg.ReportTimeout,
		AdaptiveReports:  cfg.AdaptiveReports,
		MinPoolToShare:   cfg.MinPoolToShare,
		MaxShare:         cfg.MaxShare,
		RecoveryPatience: cfg.RecoveryPatience,
		RecoveryQuiet:    cfg.RecoveryQuiet,
		DisableRecovery:  cfg.DisableRecovery,
		DiffGossip:       cfg.DiffGossip,
	}, protocol.Deps{
		Clock:    a.k,
		Sender:   actorSender{a},
		Expander: a.exp,
		Peers:    a.peerView,
		Rand:     func(m int) int { return a.rng.Intn(m) },
		RandFloat: func() float64 {
			return a.rng.Float64()
		},
		OnComplete:    a.noteCompletion,
		OnTableChange: a.observeTable,
	})
	if a.entry != nil {
		a.entry.Core = a.core
	}
}

// peerView is the static full-pool view: a window of the shared doubled ring,
// every process but this one.
func (a *mactor) peerView() []protocol.NodeID {
	return a.h.ring[int(a.nid)+1 : int(a.nid)+a.h.cfg.Procs]
}

func (a *mactor) noteCompletion(code.Code) {
	a.sh.recs[a.spec.idx].completions++
}

func (a *mactor) dead() bool { return a.crashed || a.done }

// loop is invoked whenever the actor's context becomes free.
func (a *mactor) loop() {
	if !a.started || a.busy || a.crashed {
		return
	}
	if len(a.inbox) > 0 {
		a.drainInbox()
		return
	}
	if a.done {
		return
	}
	it, st := a.core.Next()
	switch st {
	case protocol.Expand:
		a.endIdle()
		a.expand(it)
	case protocol.Terminated:
		a.onTerminated()
	case protocol.Starved:
		a.beginIdle()
		a.requestWork()
	}
}

func (a *mactor) expand(it protocol.Item) {
	cost := a.spec.w.costOf(it) * a.h.cfg.CostFactor
	a.busy = true
	a.pendItem = it
	a.pendStart = a.k.Now()
	a.k.AfterArg(cost, a.expandDoneFn, a.incarn)
}

func (a *mactor) expandDone(gen int) {
	if a.incarn != gen {
		return
	}
	a.busy = false
	if a.crashed {
		return
	}
	it, start := a.pendItem, a.pendStart
	now := a.k.Now()
	a.met.Add(metrics.BB, now-start)
	a.met.Expanded++
	a.sh.noteExpansion(a, it.Code)
	a.core.OnExpanded(it, a.exp.Outcome(it), now-start)
	a.loop()
}

func (a *mactor) reportTick() {
	if a.dead() {
		return
	}
	if a.core.ReportOverdue() {
		a.core.FlushReport()
	}
	a.reportTimer = a.k.After(a.h.cfg.ReportTimeout, a.reportTickFn)
}

func (a *mactor) tableTick() {
	if a.dead() {
		return
	}
	peers := a.peerView()
	if len(peers) > 0 {
		a.core.SendTable(peers[a.rng.Intn(len(peers))])
	}
	a.tableTimer = a.k.After(a.h.cfg.TableInterval, a.tableTickFn)
}

func (a *mactor) requestWork() {
	if a.dead() || a.reqWaiting || a.busy {
		return
	}
	switch a.core.Starve() {
	case protocol.StarveRequested:
		a.reqTimer = a.k.AfterArg(a.h.cfg.RequestTimeout, a.reqTimeoutFn, a.incarn)
	case protocol.StarveRecover:
		a.recover()
	case protocol.StarveWait:
		if !a.core.RequestPending() {
			a.paceRetry()
		}
	}
}

func (a *mactor) reqTimeout(gen int) {
	if a.incarn != gen || a.dead() {
		return
	}
	a.core.RequestFailed()
	a.paceRetry()
}

func (a *mactor) paceRetry() {
	if a.reqWaiting {
		return
	}
	a.reqWaiting = true
	a.k.AfterArg(a.h.cfg.RetryDelay, a.paceDoneFn, a.incarn)
}

func (a *mactor) paceDone(gen int) {
	if a.incarn != gen {
		return
	}
	a.reqWaiting = false
	if !a.dead() && !a.busy {
		a.loop()
	}
}

func (a *mactor) recover() {
	if a.h.cfg.DisableRecovery || a.dead() {
		return
	}
	plan := a.core.PlanRecovery()
	if len(plan) == 0 {
		a.loop()
		return
	}
	scanCost := a.h.cfg.ContractPerCode * float64(a.core.Table().Len()+1)
	a.busy = true
	a.pendPlan = plan
	a.pendStart = a.k.Now()
	a.pendContract = scanCost
	a.endIdle()
	a.k.AfterArg(scanCost, a.recoverDoneFn, a.incarn)
}

func (a *mactor) recoverDone(gen int) {
	if a.incarn != gen {
		return
	}
	a.busy = false
	if a.crashed {
		return
	}
	plan := a.pendPlan
	a.pendPlan = nil
	a.met.Add(metrics.Contract, a.pendContract)
	a.core.Adopt(plan)
	a.loop()
}

// deliver queues one routed message for this actor's instance. Processing
// always defers to a wake event at the same virtual instant, so the whole
// same-time batch lands first and drainInbox orders it canonically — on any
// shard count, serial included.
func (a *mactor) deliver(from sim.NodeID, pm protocol.Msg) {
	if a.crashed {
		return
	}
	if a.done {
		// A done actor is about to be reaped (the tombstone path answers
		// stragglers); nothing here can teach it anything.
		return
	}
	a.inbox = append(a.inbox, inMsg{from: from, at: a.k.Now(), msg: pm})
	if !a.busy && !a.wake {
		a.wake = true
		a.k.After(0, a.wakeFn)
	}
}

func (a *mactor) wakeup() {
	a.wake = false
	if a.busy || a.crashed {
		return
	}
	a.loop()
}

func (a *mactor) drainInbox() {
	cfg := &a.h.cfg
	slices.SortStableFunc(a.inbox, arrivalOrder)
	commCost, contractCost, lbCost := 0.0, 0.0, 0.0
	for i := 0; i < len(a.inbox); i++ {
		m := a.inbox[i]
		commCost += cfg.CommOverhead
		switch t := m.msg.(type) {
		case protocol.Report:
			contractCost += cfg.ContractPerCode * float64(len(t.Codes))
		case protocol.TableMsg:
			contractCost += cfg.ContractPerCode * float64(len(t.Codes))
		case protocol.DigestReport:
			contractCost += cfg.ContractPerCode * float64(len(t.Codes)+1)
		case protocol.SubtreeRequest:
			contractCost += cfg.ContractPerCode
		case protocol.SubtreeReply:
			contractCost += cfg.ContractPerCode * float64(len(t.Rel)+1)
		case protocol.WorkGrant:
			lbCost += cfg.CommOverhead * float64(1+len(t.Codes)/8)
		}
		eff := a.core.HandleMessage(protocol.NodeID(m.from), m.msg)
		if eff.Answered {
			a.reqTimer.Cancel()
		}
		if eff.Failed {
			a.paceRetry()
		}
	}
	a.inbox = a.inbox[:0]
	a.met.Add(metrics.LB, lbCost)
	a.busy = true
	a.pendStart = a.k.Now()
	a.pendComm = commCost
	a.pendContract = contractCost
	a.endIdle()
	a.k.AfterArg(commCost+contractCost, a.drainDoneFn, a.incarn)
}

func (a *mactor) drainDone(gen int) {
	if a.incarn != gen {
		return
	}
	a.busy = false
	if a.crashed {
		return
	}
	a.met.Add(metrics.Comm, a.pendComm)
	a.met.Add(metrics.Contract, a.pendContract)
	a.loop()
}

func (a *mactor) observeTable() {
	a.tableOps++
	if a.tableOps%32 == 0 {
		a.met.ObserveTable(a.core.Table().WireSize())
	}
}

// onTerminated records this context's termination detection and reaps the
// instance from the process's mux: the routing tombstone answers straggler
// work requests, and the core's table arenas return to the pool.
func (a *mactor) onTerminated() {
	a.done = true
	a.detectedAt = a.k.Now()
	a.endIdle()
	a.met.ObserveTable(a.core.Table().WireSize())
	a.reqTimer.Cancel()
	a.sh.noteTermination(a)
	a.h.muxes[a.nid].Reap(a.spec.id)
}

func (a *mactor) beginIdle() {
	if a.idleStart < 0 {
		a.idleStart = a.k.Now()
	}
}

func (a *mactor) endIdle() {
	if a.idleStart >= 0 {
		a.met.Add(metrics.Idle, a.k.Now()-a.idleStart)
		a.idleStart = -1
	}
}

// crash halts this instance's context (instance-scoped, or as part of a
// whole-process failure).
func (a *mactor) crash() {
	if a.crashed || a.done {
		// Already down, or already played its part in this instance's §5.4
		// termination — a finished context has nothing left to fail.
		return
	}
	a.endIdle()
	a.crashed = true
	a.inbox = nil
	a.reqTimer.Cancel()
	a.reportTimer.Cancel()
	a.tableTimer.Cancel()
}

// restart reboots a crashed context under its old identity: empty table,
// empty pool, fresh expander — it rebuilds purely from its instance's
// gossip, exactly like a single-instance crash-restart.
func (a *mactor) restart() {
	if !a.crashed || a.done {
		return
	}
	a.cntPrior = a.cntPrior.Merge(a.core.Counters())
	a.incarn++
	a.crashed = false
	a.busy = false
	a.reqWaiting = false
	a.inbox = nil
	a.idleStart = -1
	a.tableOps = 0
	a.exp = a.spec.w.newExpander()
	a.initCore()
	a.core.NoteRemoteActivity(0)
	jitter := a.rng.Float64()
	a.reportTimer = a.k.After(jitter*a.h.cfg.ReportTimeout, a.reportTickFn)
	if a.h.cfg.TableInterval > 0 {
		a.tableTimer = a.k.After(jitter*a.h.cfg.TableInterval, a.tableTickFn)
	}
	a.loop()
}
