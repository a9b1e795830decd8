package gb

import (
	"math"
	"math/rand"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/btree"
	"gossipbnb/internal/code"
	"gossipbnb/internal/instance"
	"gossipbnb/internal/protocol"
)

// The loopback harness drives a handful of protocol.Cores to termination on
// bench-owned Deps — a virtual clock, a Sender that really encodes and
// decodes every message, an Expander wrapped in spans — single-threaded, with
// a span around every Core call. Sender and Expander callbacks made from
// inside a Core call become child spans, so what remains of the call is the
// core's own time. It is a third, deliberately small driver: the timers below
// mirror internal/dbnb's defaults, message handling is instantaneous, and
// only expansions take virtual time.
const (
	hRequestTimeout = 3.0   // dbnb.Config.RequestTimeout default
	hRetryDelay     = 1.0   // dbnb.Config.RetryDelay default
	hReportTimeout  = 30.0  // protocol.Config.ReportTimeout default
	hTableInterval  = 120.0 // dbnb.Config.TableInterval default
	hRecoverCost    = 1e-3  // virtual seconds charged per recovery scan, so retries advance the clock
	hMaxEvents      = 50_000_000
	// hSampleCap bounds the recorded message and completion streams the
	// micro-drivers replay.
	hSampleCap  = 2048
	hCompletion = 50_000
)

// harnessInstance is one problem the harness solves.
type harnessInstance struct {
	newExpander func() protocol.Expander
	costOf      func(protocol.Item) float64
	optimum     float64 // sequential reference
	start       float64 // virtual submission time
}

// harnessConfig is one harness run.
type harnessConfig struct {
	nodes int
	seed  int64
	proto protocol.Config
	insts []harnessInstance
	// silence halts that many of the highest-numbered nodes at silenceAt
	// virtual seconds, so the rest must recover their work.
	silence   int
	silenceAt float64
}

// harnessResult is what one harness run produced.
type harnessResult struct {
	OK         bool // every surviving core terminated at its instance's optimum
	Time       float64
	Expansions int
	Msgs       int
	Bytes      int
	// Recorded streams (nil when the run did not sample).
	Messages    [][]byte
	Completions []code.Code
}

func harnessReplay(diff, faults bool) func(*Input, Sizes) harnessConfig {
	return func(in *Input, sz Sizes) harnessConfig {
		tree := in.Tree
		st := tree.Stats()
		cfg := harnessConfig{
			nodes: sz.HarnessNodes,
			proto: protocol.Config{RecoveryQuiet: table1Quiet, DiffGossip: diff},
			insts: []harnessInstance{{
				newExpander: func() protocol.Expander { return btree.Expander{Tree: tree} },
				costOf:      func(it protocol.Item) float64 { return tree.Nodes[it.Ref].Cost },
				optimum:     st.Optimum,
			}},
		}
		if faults {
			// All but two cores fall silent a third of the way through the
			// fault-free estimate.
			cfg.silence = sz.HarnessNodes - 2
			cfg.silenceAt = 0.3 * st.TotalCost / float64(sz.HarnessNodes)
		}
		return cfg
	}
}

func harnessProblems(sel protocol.SelectRule, minShare int) func(*Input, Sizes) harnessConfig {
	return func(in *Input, sz Sizes) harnessConfig {
		cfg := harnessConfig{
			nodes: sz.HarnessNodes,
			proto: protocol.Config{Select: sel, Prune: true, MinPoolToShare: minShare},
		}
		for i, p := range in.Problems {
			p := p
			cfg.insts = append(cfg.insts, harnessInstance{
				newExpander: func() protocol.Expander { return bnb.NewExpander(p) },
				costOf:      func(protocol.Item) float64 { return simNodeCost },
				optimum:     in.Refs[i].Value,
				start:       multiStagger * float64(i),
			})
		}
		return cfg
	}
}

// --- event queue ---------------------------------------------------------------

type hkind uint8

const (
	evStep hkind = iota
	evDeliver
	evExpandDone
	evReqTimeout
	evReportTick
	evTableTick
	evOpen
	evSilence
)

type hevent struct {
	at   float64
	seq  uint64
	kind hkind
	node int32
	from int32
	inst protocol.InstanceID
	gen  int32
	msg  protocol.Msg
}

// hqueue is a binary min-heap on (at, seq), hand-rolled so events stay
// values: container/heap would box each one.
type hqueue []hevent

func (q hqueue) less(i, j int) bool {
	return q[i].at < q[j].at || (q[i].at == q[j].at && q[i].seq < q[j].seq)
}

func (q *hqueue) push(e hevent) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *hqueue) pop() hevent {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = hevent{}
	h = h[:last]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < last && h.less(l, m) {
			m = l
		}
		if r < last && h.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return top
}

// --- nodes ---------------------------------------------------------------------

type hentry struct {
	id     protocol.InstanceID
	core   *protocol.Core
	exp    protocol.Expander
	spec   *harnessInstance
	reqGen int32
	done   bool
}

type hnode struct {
	id      int32
	h       *harness
	rng     *rand.Rand
	peers   []protocol.NodeID
	mux     *instance.Mux // multi-instance runs only
	entries []*hentry     // by instance slot
	inbox   []hevent
	busy    bool
	crashed bool
	// The expansion in flight.
	pendEntry *hentry
	pendItem  protocol.Item
	pendCost  float64
	nextProbe float64 // earliest virtual time of the next work request
	wakeAt    float64 // pending evStep time, -1 if none
}

type harness struct {
	cfg    harnessConfig
	rec    *Recorder
	now    float64
	seq    uint64
	queue  hqueue
	nodes  []*hnode
	multi  bool
	buf    []byte
	fired  int
	res    harnessResult
	sample *rand.Rand // nil = do not record streams
	seen   int        // messages offered to the sample
}

// Now implements protocol.Clock.
func (h *harness) Now() float64 { return h.now }

func (h *harness) push(e hevent) {
	h.seq++
	e.seq = h.seq
	h.queue.push(e)
}

// hSender is one instance's Sender on one node: encode, account, decode,
// deliver after the paper's latency.
type hSender struct {
	n    *hnode
	inst protocol.InstanceID
}

func (s hSender) Send(to protocol.NodeID, m protocol.Msg) {
	h := s.n.h
	if s.inst != 0 {
		m = protocol.InstMsg{Instance: s.inst, Msg: m}
	}
	sp := h.rec.Begin("protocol.codec.encode")
	buf, err := protocol.Encode(h.buf[:0], m)
	h.rec.End(sp)
	if err != nil {
		panic(err) // unreachable: cores only emit canonical messages
	}
	h.buf = buf
	h.res.Msgs++
	h.res.Bytes += len(buf)
	h.offer(buf)
	sp = h.rec.Begin("protocol.codec.decode")
	inst, dm, _, err := protocol.DecodeInstance(buf)
	h.rec.End(sp)
	if err != nil {
		panic(err) // unreachable: the bytes were just encoded
	}
	h.push(hevent{at: h.now + paperLatency(len(buf)), kind: evDeliver, node: int32(to), from: s.n.id, inst: inst, msg: dm})
}

// offer reservoir-samples the encoded message stream.
func (h *harness) offer(buf []byte) {
	if h.sample == nil {
		return
	}
	h.seen++
	slot := len(h.res.Messages)
	if slot >= hSampleCap {
		if slot = h.sample.Intn(h.seen); slot >= hSampleCap {
			return
		}
	} else {
		h.res.Messages = append(h.res.Messages, nil)
	}
	h.res.Messages[slot] = append([]byte(nil), buf...)
}

// tracedExpander puts a span around the Expander calls, whoever makes them.
type tracedExpander struct {
	inner protocol.Expander
	rec   *Recorder
}

func (e tracedExpander) Locate(c code.Code) (protocol.Item, bool) {
	sp := e.rec.Begin("expander.locate")
	it, ok := e.inner.Locate(c)
	e.rec.End(sp)
	return it, ok
}

func (e tracedExpander) Root() protocol.Item { return e.inner.Root() }

func (e tracedExpander) Outcome(it protocol.Item) protocol.Outcome {
	sp := e.rec.Begin("expander.outcome")
	out := e.inner.Outcome(it)
	e.rec.End(sp)
	return out
}

// runHarness drives cfg to termination. rec nil runs untraced; record keeps
// the message and completion streams.
func runHarness(cfg harnessConfig, rec *Recorder, record bool) harnessResult {
	h := &harness{cfg: cfg, rec: rec, multi: len(cfg.insts) > 1}
	if record {
		h.sample = rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	}
	for i := 0; i < cfg.nodes; i++ {
		n := &hnode{id: int32(i), h: h, rng: rand.New(rand.NewSource(subSeed(cfg.seed, 7, i))), wakeAt: -1}
		for j := 0; j < cfg.nodes; j++ {
			if j != i {
				n.peers = append(n.peers, protocol.NodeID(j))
			}
		}
		n.entries = make([]*hentry, len(cfg.insts))
		if h.multi {
			n.mux = instance.NewMux()
		}
		h.nodes = append(h.nodes, n)
		jitter := n.rng.Float64()
		h.push(hevent{at: jitter * hReportTimeout, kind: evReportTick, node: n.id})
		h.push(hevent{at: jitter * hTableInterval, kind: evTableTick, node: n.id})
	}
	for i := range cfg.insts {
		h.push(hevent{at: cfg.insts[i].start, kind: evOpen, gen: int32(i)})
	}
	if cfg.silence > 0 {
		h.push(hevent{at: cfg.silenceAt, kind: evSilence})
	}
	// The solve span opens once the harness's own scaffolding (seeded
	// generators, timers) is built: that is bench code, not a layer.
	root := rec.Begin("solve")
	for len(h.queue) > 0 && h.fired < hMaxEvents && !h.allDone() {
		ev := h.queue.pop()
		h.now = ev.at
		h.fired++
		h.fire(ev)
	}
	rec.End(root)
	h.res.Time = h.now
	h.res.OK = h.allDone() && h.optimaOK()
	return h.res
}

func (h *harness) fire(ev hevent) {
	switch ev.kind {
	case evOpen:
		h.open(int(ev.gen))
		return
	case evSilence:
		for i := h.cfg.nodes - h.cfg.silence; i < h.cfg.nodes; i++ {
			h.nodes[i].crashed = true
			h.nodes[i].inbox = nil
		}
		return
	}
	n := h.nodes[ev.node]
	if n.crashed {
		return
	}
	switch ev.kind {
	case evStep:
		if ev.at == n.wakeAt {
			n.wakeAt = -1
		}
		n.step()
	case evDeliver:
		n.inbox = append(n.inbox, ev)
		n.step()
	case evExpandDone:
		n.expandDone()
	case evReqTimeout:
		if e := n.entryOf(ev.inst); e != nil && e.reqGen == ev.gen && e.core.RequestPending() {
			e.core.RequestFailed()
			n.wake(math.Max(h.now, n.nextProbe))
		}
	case evReportTick:
		live := false
		for _, e := range n.entries {
			if e == nil || e.done {
				continue
			}
			live = true
			if e.core.ReportOverdue() {
				sp := h.rec.Begin("protocol.core.flush_report")
				e.core.FlushReport()
				h.rec.End(sp)
			}
		}
		if live || !h.allOpened() {
			h.push(hevent{at: h.now + hReportTimeout, kind: evReportTick, node: n.id})
		}
	case evTableTick:
		live := false
		for _, e := range n.entries {
			if e == nil || e.done {
				continue
			}
			live = true
			sp := h.rec.Begin("protocol.core.send_table")
			e.core.SendTable(n.peers[n.rng.Intn(len(n.peers))])
			h.rec.End(sp)
		}
		if live || !h.allOpened() {
			h.push(hevent{at: h.now + hTableInterval, kind: evTableTick, node: n.id})
		}
	}
}

// open submits instance slot i: every live node gets a core for it, one node
// gets the root, and everyone starts looking for work.
func (h *harness) open(i int) {
	spec := &h.cfg.insts[i]
	id := protocol.InstanceID(0)
	if h.multi {
		id = protocol.InstanceID(i + 1)
	}
	for _, n := range h.nodes {
		if n.crashed {
			continue
		}
		n := n
		sp := h.rec.Begin("expander.new")
		exp := tracedExpander{inner: spec.newExpander(), rec: h.rec}
		h.rec.End(sp)
		e := &hentry{id: id, exp: exp, spec: spec}
		deps := protocol.Deps{
			Clock:     h,
			Sender:    hSender{n: n, inst: id},
			Expander:  exp,
			Peers:     func() []protocol.NodeID { return n.peers },
			Rand:      n.rng.Intn,
			RandFloat: n.rng.Float64,
		}
		if h.sample != nil {
			deps.OnComplete = func(c code.Code) {
				if len(h.res.Completions) < hCompletion {
					h.res.Completions = append(h.res.Completions, c)
				}
			}
		}
		sp = h.rec.Begin("protocol.core.new")
		e.core = protocol.New(protocol.NodeID(n.id), h.cfg.proto, deps)
		h.rec.End(sp)
		n.entries[i] = e
		if h.multi {
			n.mux.Open(id, e.core, exp)
		}
		if int(n.id) == i%h.cfg.nodes {
			e.core.Seed(exp.Root())
		}
		n.wake(h.now)
	}
}

func (h *harness) allOpened() bool {
	for _, e := range h.nodes[0].entries {
		if e == nil {
			return false
		}
	}
	return true
}

func (h *harness) allDone() bool {
	alive := false
	for _, n := range h.nodes {
		if n.crashed {
			continue
		}
		alive = true
		for _, e := range n.entries {
			if e == nil || !e.done {
				return false
			}
		}
	}
	return alive
}

func (h *harness) optimaOK() bool {
	for _, n := range h.nodes {
		if n.crashed {
			continue
		}
		for _, e := range n.entries {
			if e.core.Incumbent() != e.spec.optimum {
				return false
			}
		}
	}
	return true
}

// wake schedules a step at t unless an earlier one is already pending.
func (n *hnode) wake(t float64) {
	if n.wakeAt >= 0 && n.wakeAt <= t {
		return
	}
	n.wakeAt = t
	n.h.push(hevent{at: t, kind: evStep, node: n.id})
}

// entryOf finds the node's entry for a wire instance id.
func (n *hnode) entryOf(id protocol.InstanceID) *hentry {
	if !n.h.multi {
		return n.entries[0]
	}
	if i := int(id) - 1; i >= 0 && i < len(n.entries) {
		return n.entries[i]
	}
	return nil
}

var handleSpan = [protocol.KindCount]string{
	protocol.KindReport:         "protocol.core.handle_report",
	protocol.KindTable:          "protocol.core.handle_table",
	protocol.KindRequest:        "protocol.core.handle_work_request",
	protocol.KindGrant:          "protocol.core.handle_work_grant",
	protocol.KindDeny:           "protocol.core.handle_work_deny",
	protocol.KindDigestReport:   "protocol.core.handle_digest",
	protocol.KindSubtreeRequest: "protocol.core.handle_subtree",
	protocol.KindSubtreeReply:   "protocol.core.handle_subtree",
}

// step is the node's main loop turn: handle every queued message, then let
// the core (or the mux, across instances) decide what to do with the
// processor.
func (n *hnode) step() {
	if n.busy || n.crashed {
		return
	}
	h := n.h
	for i := 0; i < len(n.inbox); i++ {
		ev := n.inbox[i]
		e := n.entryOf(ev.inst)
		if h.multi {
			sp := h.rec.Begin("instance.mux.route")
			_, v := n.mux.Route(ev.inst)
			h.rec.End(sp)
			if v != instance.RouteOpen {
				if _, isReq := ev.msg.(protocol.WorkRequest); isReq && v == instance.RouteReaped {
					// A finished instance answers stragglers from its
					// tombstone, like both real drivers.
					tomb, _ := n.mux.Reaped(ev.inst)
					hSender{n, ev.inst}.Send(protocol.NodeID(ev.from), protocol.Report{Codes: []code.Code{code.Root()}, Incumbent: tomb})
				}
				continue
			}
		}
		if e == nil {
			continue
		}
		sp := h.rec.Begin(handleSpan[ev.msg.Kind()])
		eff := e.core.HandleMessage(protocol.NodeID(ev.from), ev.msg)
		h.rec.End(sp)
		if eff.Answered {
			e.reqGen++ // orphans the pending request timeout
		}
		if eff.Failed {
			n.nextProbe = h.now + hRetryDelay
		}
	}
	n.inbox = n.inbox[:0]
	for {
		e, it, st := n.next()
		switch st {
		case protocol.Expand:
			n.busy = true
			n.pendEntry, n.pendItem, n.pendCost = e, it, e.spec.costOf(it)
			h.push(hevent{at: h.now + n.pendCost, kind: evExpandDone, node: n.id})
			return
		case protocol.Terminated:
			e.done = true
			if h.multi {
				n.mux.Reap(e.id)
			}
			if !h.multi {
				return
			}
		case protocol.Starved:
			n.starve(e)
			return
		default:
			return
		}
	}
}

// next asks the single core, or the mux across cores, for the next activity.
func (n *hnode) next() (*hentry, protocol.Item, protocol.Status) {
	h := n.h
	if !h.multi {
		e := n.entries[0]
		if e == nil || e.done {
			return nil, protocol.Item{}, protocol.Idle
		}
		sp := h.rec.Begin("protocol.core.next")
		it, st := e.core.Next()
		h.rec.End(sp)
		return e, it, st
	}
	// Mux.Next polls Core.Next on every open instance; the span holds both.
	sp := h.rec.Begin("instance.mux.next")
	me, it, st := n.mux.Next()
	h.rec.End(sp)
	if me == nil {
		return nil, it, st
	}
	return n.entryOf(me.ID), it, st
}

func (n *hnode) expandDone() {
	h := n.h
	n.busy = false
	e, it := n.pendEntry, n.pendItem
	out := e.exp.Outcome(it)
	sp := h.rec.Begin("protocol.core.on_expanded")
	e.core.OnExpanded(it, out, n.pendCost)
	h.rec.End(sp)
	h.res.Expansions++
	n.step()
}

// starve runs the out-of-work decision, pacing probes one retry delay apart.
func (n *hnode) starve(e *hentry) {
	h := n.h
	if h.now < n.nextProbe {
		n.wake(n.nextProbe)
		return
	}
	sp := h.rec.Begin("protocol.core.starve")
	dec := e.core.Starve()
	h.rec.End(sp)
	switch dec {
	case protocol.StarveRequested:
		e.reqGen++
		n.nextProbe = h.now + hRetryDelay
		h.push(hevent{at: h.now + hRequestTimeout, kind: evReqTimeout, node: n.id, inst: e.id, gen: e.reqGen})
	case protocol.StarveRecover:
		sp := h.rec.Begin("protocol.core.plan_recovery")
		if plan := e.core.PlanRecovery(); len(plan) > 0 {
			e.core.Adopt(plan)
		}
		h.rec.End(sp)
		n.wake(h.now + hRecoverCost)
	case protocol.StarveWait:
		if !e.core.RequestPending() {
			n.wake(h.now + hRetryDelay)
		}
	}
}
