package live

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/btree"
	"gossipbnb/internal/ctree"
	"gossipbnb/internal/instance"
	"gossipbnb/internal/member"
	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/protocol"
)

// Config parameterizes a live cluster.
type Config struct {
	Nodes int
	Seed  int64
	// TimeScale converts tree node costs (seconds) to real durations; e.g.
	// 0.001 runs a 10-second tree in ~10 ms of wall clock per process.
	TimeScale float64
	// Network overrides the transport; nil means an in-memory Transport
	// built from Seed, with no latency. Pass NewTransport with a delay
	// function for modeled latency, or a TCPNetwork to run over real
	// sockets. The cluster closes the network when Run returns.
	Network Net
	// Protocol parameters, as in the simulator. The report path is the
	// exception: newCore sizes its batch and timeout for the live clock. The
	// rest are protocol.Config's defaults.
	Select        protocol.SelectRule
	Prune         bool
	RetryDelay    time.Duration
	RecoveryQuiet time.Duration
	// DiffGossip switches the report path to anti-entropy diff gossip, as in
	// the simulator's knob: digests plus deltas instead of full frontiers.
	DiffGossip bool
	// Timeout bounds Run's wall-clock time.
	Timeout time.Duration
	// Linger keeps a fully terminated cluster running this much longer
	// before Run returns, leaving a window for late Submits — without it
	// the run closes within one completion-check tick of the last instance
	// resolving. A submission during the window resets it.
	Linger time.Duration
	// SuspectAfter enables the failure detector, the §5.2 membership of
	// internal/member: a peer silent this long — no envelope from it, no
	// progress of its heartbeat — is suspected. Every third of it a node
	// sends its heartbeat table to a constant fanout of random view members,
	// and every received envelope is already evidence of life. Zero disables
	// detection entirely — no per-peer tracking, no heartbeats — keeping the
	// failure-free path unchanged.
	SuspectAfter time.Duration
	// ExcludeAfter is the silence after which a suspect is excluded from the
	// local view (defaults to 4×SuspectAfter, never below SuspectAfter).
	// Exclusion is the same §5.2 view shrink a crash notification produces,
	// and is always revocable: any message from the peer re-absorbs it.
	ExcludeAfter time.Duration
	// Nemesis injects scheduled faults into the transport, in the grammar
	// the simulator also speaks: partitions, one-way cuts, flaps, stalls,
	// slow links, and per-message loss, corruption, reordering, duplication
	// and stale replay. nil means none. The schedule is armed when Run
	// starts.
	Nemesis *nemesis.Schedule
	// OnDetect observes failure-detector transitions (suspected, cleared,
	// excluded, reabsorbed) across all nodes. Called from node goroutines —
	// handlers must be fast and concurrency-safe.
	OnDetect func(DetectEvent)
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 0.001
	}
	// Only driver-read fields get defaults here: protocol.Config applies the
	// shared protocol defaults, so the two runtimes cannot drift apart.
	if c.RetryDelay <= 0 {
		c.RetryDelay = 5 * time.Millisecond
	}
	if c.RecoveryQuiet <= 0 {
		c.RecoveryQuiet = 50 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// Result summarizes a live run.
type Result struct {
	Terminated bool
	Optimum    float64
	OptimumOK  bool
	Expanded   int
	Elapsed    time.Duration
	// MsgsSent and BytesSent copy Net.Sent and Net.Bytes, and Kinds copies
	// its per-kind arrays; the benchmark harness (bench/) is their last
	// reader.
	MsgsSent  int64
	BytesSent int64
	Kinds     KindStats
	// Net is the transport's traffic ledger: frame-integrity rejections are
	// its Corrupt drops, nemesis casualties its Cut and Lost, detector
	// suppression its Suspect.
	Net nemesis.NetStats
	// Suspicions, Exclusions and Reabsorbed count failure-detector
	// transitions across all nodes and incarnations: alive → suspect,
	// suspect → excluded, and excluded peers readmitted after re-announcing.
	// Exclusions of peers that were alive all along are the detector's
	// false-positive cost — time lost, never correctness.
	Suspicions int64
	Exclusions int64
	Reabsorbed int64
}

// KindStats is the ledger's sent traffic by message kind, indexed by the
// codec kind byte (protocol.KindName labels them).
type KindStats struct {
	Sent  [nemesis.MsgKinds]int64
	Bytes [nemesis.MsgKinds]int64
}

// liveNode is one goroutine-backed process identity: it survives
// crash-restart cycles, while each reboot runs as a fresh incarnation — a
// new core, a new expander, a new inbox — on its own goroutine. All
// protocol decisions live in the core, which is confined to its
// incarnation's goroutine.
type liveNode struct {
	id NodeID
	cl *Cluster

	// cur is the incarnation whose cores are the node's current protocol
	// state; Restart swaps it, under Cluster.stopMu. The goroutine of a dead
	// incarnation may briefly keep running against its own (orphaned) cores
	// — gen tells it to exit at the next loop turn.
	cur *incarnation
	gen atomic.Int64

	crashed atomic.Bool

	// expanded counts expansions across all incarnations — a crashed
	// incarnation's work was really performed (and possibly reported), so
	// the cluster-level tally must not lose it.
	expanded atomic.Int64

	// view is the node's current peer view: the boot-time resource pool,
	// plus every member learned since via the Hello/Welcome join gossip. It
	// is a copy-on-write slice behind an atomic pointer — the core reads it
	// on every protocol decision with a single load, no lock and no
	// allocation on the send path, while joins (rare) copy and swap under
	// viewMu. A restarted process keeps its view — machine identity, not
	// incarnation state.
	view   atomic.Pointer[[]protocol.NodeID]
	viewMu sync.Mutex
}

// incarnation is one boot of a liveNode: everything a crash wipes. The §5
// process model runs here, against this incarnation's own cores and inbox.
// The mux multiplexes every registry instance — the boot problem (instance
// 0, the legacy untagged wire) and those submitted mid-run — over the one
// goroutine, one inbox, and one transport endpoint the process owns.
type incarnation struct {
	n     *liveNode
	gen   int64
	inbox <-chan Envelope
	mux   *instance.Mux
	// boot is instance 0's core, kept past its reaping: the membership
	// messages (Hello, Welcome, Heartbeat) travel untagged and carry its
	// incumbent and activity age. nil when this incarnation never opened
	// it — the boot problem had resolved, or this node had detected it
	// before a crash.
	boot *protocol.Core

	// instEpoch is the submission-registry generation this incarnation last
	// synchronized with; it trails Cluster.instEpoch until the next
	// syncInstances poll.
	instEpoch int64

	sinceYield int // expansions since run last yielded its processor

	// rng is the incarnation's one random stream, seeded from (Seed, node
	// id, generation): every hosted core and the detector draw from it, on
	// this goroutine only.
	rng *rand.Rand

	// contacts is non-nil on a joiner's first incarnation: the members it
	// announces itself to. Until one of them answers with a Welcome
	// (welcomed), the announcement is re-sent on the RetryDelay cadence —
	// the Hello, or its answer, can be lost like any message.
	contacts []NodeID
	welcomed bool

	// det is the incarnation's failure detector; nil when SuspectAfter is
	// zero. Confined to this incarnation's goroutine. rejoin marks the peers
	// it re-absorbed whose next Welcome bootstraps the table (onDetect).
	det    *member.Member
	rejoin map[NodeID]bool

	// helloAt and tickAt are the deadlines of the incarnation's own duties,
	// in clock seconds: a joiner's next Hello and the detector's next tick.
	// +Inf when there is none — the node joined no one, or was welcomed; it
	// runs no detector.
	helloAt, tickAt float64
}

// Cluster wires live nodes over a shared transport. Its boot problem,
// registry entry 0, is either a recorded basic tree (NewCluster: expansion
// sleeps the scaled recorded cost) or a code-driven problem
// (NewProblemClusterRef: expansion burns real CPU re-deriving bounds from the
// initial data).
type Cluster struct {
	cfg   Config
	tr    Net
	clock liveClock
	nodes []*liveNode
	wg    sync.WaitGroup
	// wake nudges the Run loop to sweep the registry at once when a node
	// detects an instance's termination; its ticker sweeps anyway.
	wake    chan struct{}
	stopAll chan struct{}
	// stopMu orders Restart's wg.Add against Run's close(stopAll)+wg.Wait:
	// a restart racing the shutdown must either win the Add before the stop
	// flag is set or see it and spawn nothing. started gates Restart to the
	// running window — before Run spawns the boot incarnations, a restart
	// would double-drive the same core from two goroutines.
	stopMu  sync.Mutex
	started bool
	stopped bool

	// Instance registry: specs grows append-only under instMu (specs[0] is
	// the boot problem), and instEpoch bumps on every change so node loops
	// can poll for news with one atomic load instead of a lock acquisition
	// per turn.
	instMu    sync.Mutex
	specs     []*instSpec
	instEpoch atomic.Int64

	// detected tallies every node's detector transitions by kind, across
	// incarnations: a restart wipes a detector, not what it observed.
	detected [member.Reabsorbed + 1]atomic.Int64
}

// liveClock is the cluster's shared protocol clock: wall-clock seconds
// since construction. The protocol never compares clocks across processes,
// only local differences, so one shared epoch is merely convenient.
type liveClock struct{ start time.Time }

func (c liveClock) Now() float64 { return time.Since(c.start).Seconds() }

// instSender transmits one instance's canonical messages over the cluster
// transport, tagging them with the instance ID. Instance 0 — the boot
// problem — stays untagged, so a never-multiplexed cluster speaks the exact
// legacy wire format.
type instSender struct {
	inc *incarnation
	id  protocol.InstanceID
	// flush is the outbox snapshot the report flush in progress carries — the
	// core takes a fresh one per flush, so its identity names the flush — and
	// flushTo the peers that flush has reached.
	flush   *ctree.Table
	flushTo []protocol.NodeID
}

func (s *instSender) Send(to protocol.NodeID, m protocol.Msg) {
	if s.repeatsFlush(to, m) {
		return
	}
	if s.id != 0 {
		m = protocol.InstMsg{Instance: s.id, Msg: m}
	}
	n := s.inc.n
	n.cl.tr.Send(n.id, NodeID(to), m)
}

// repeatsFlush reports whether m is a report that the flush in progress has
// already put on the link to to. Core.FlushReport draws its ReportFanout
// targets with replacement — on a two-member view every flush names the one
// peer twice — and the copy is byte for byte the first message again: merging
// it changes nothing at the receiver, so at-least-once delivery loses nothing
// when the sender drops it. The draw itself stays in the core, untouched, so
// the simulator's random sequence does not move.
//
// Every root report carries the one shared complete table (ctree.Done), and
// every bare digest push the one shared empty table (ctree.Empty), so neither
// names a flush and neither is ever dropped.
func (s *instSender) repeatsFlush(to protocol.NodeID, m protocol.Msg) bool {
	var flush *ctree.Table
	switch t := m.(type) {
	case protocol.Report:
		flush = t.Snapshot()
	case protocol.DigestReport:
		flush = t.Snapshot()
	}
	if flush == nil || flush == ctree.Done() || flush == ctree.Empty() {
		return false
	}
	if flush != s.flush {
		s.flush, s.flushTo = flush, append(s.flushTo[:0], to)
		return false
	}
	if slices.Contains(s.flushTo, to) {
		return true
	}
	s.flushTo = append(s.flushTo, to)
	return false
}

// NewCluster builds a cluster replaying a recorded basic tree under cfg:
// each expansion sleeps the recorded node cost scaled by TimeScale.
func NewCluster(tree *btree.Tree, cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	exp := btree.Expander{Tree: tree}
	return newCluster(cfg,
		func() protocol.Expander { return exp },
		func(it protocol.Item) float64 { return tree.Nodes[it.Ref].Cost * cfg.TimeScale },
		tree.Stats().Optimum)
}

// NewProblemClusterRef builds a cluster solving a code-driven problem from
// its initial data only — no recorded tree anywhere. Every process owns a
// bnb expander and burns real CPU per expansion re-deriving bounds and
// branching. ref is the problem's sequential solve (bnb.SolveProblem), so
// Result.OptimumOK is a real cross-check.
func NewProblemClusterRef(p bnb.Problem, ref bnb.Result, cfg Config) *Cluster {
	return newCluster(cfg.withDefaults(),
		func() protocol.Expander { return bnb.NewExpander(p) },
		nil,
		ref.Value)
}

// newCluster wires nodes over the transport and registers the boot problem
// as instance 0, seeded on node 0; cfg already has defaults.
func newCluster(cfg Config, newExp func() protocol.Expander, sleepOf func(it protocol.Item) float64, trueOpt float64) *Cluster {
	tr := cfg.Network
	if tr == nil {
		tr = NewTransport(cfg.Seed, nil, 0)
	}
	if cfg.Nemesis != nil {
		if s, ok := tr.(interface{ SetNemesis(*nemesis.Schedule) }); ok {
			s.SetNemesis(cfg.Nemesis)
		}
	}
	cl := &Cluster{
		cfg:     cfg,
		tr:      tr,
		clock:   liveClock{start: time.Now()},
		wake:    make(chan struct{}, 1),
		stopAll: make(chan struct{}),
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := &liveNode{id: NodeID(i), cl: cl}
		view := make([]protocol.NodeID, 0, cfg.Nodes-1)
		for j := 0; j < cfg.Nodes; j++ {
			if j != i {
				view = append(view, protocol.NodeID(j))
			}
		}
		n.view.Store(&view)
		cl.nodes = append(cl.nodes, n)
	}
	cl.register(newExp, sleepOf, trueOpt, cl.nodes[0])
	for _, n := range cl.nodes {
		n.cur = cl.newIncarnation(n, 0, cl.tr.Register(n.id), nil)
	}
	return cl
}

// newIncarnation builds one boot of a node — a fresh mux, fed from the given
// inbox: all the state the paper lets a process lose — and opens every
// instance the node still has to solve. contacts is non-nil only for a
// joiner's first incarnation.
func (cl *Cluster) newIncarnation(n *liveNode, gen int64, inbox <-chan Envelope, contacts []NodeID) *incarnation {
	inc := &incarnation{
		n: n, gen: gen, inbox: inbox, mux: instance.NewMux(), contacts: contacts,
		rng:     rand.New(rand.NewPCG(uint64(cl.cfg.Seed), uint64(n.id)<<32|uint64(gen))),
		helloAt: math.Inf(1), tickAt: math.Inf(1),
	}
	if contacts != nil {
		inc.helloAt = 0 // due at the first loop turn
	}
	if cl.cfg.SuspectAfter > 0 {
		inc.rejoin = map[NodeID]bool{}
		inc.det, inc.tickAt = newDetector(inc), 0
	}
	inc.syncInstances()
	return inc
}

// newCore builds one instance's protocol core for an incarnation, its sends
// tagged with the instance ID, and staggers its periodic chains from now.
//
// The report path runs on the live clock. On loopback a report costs about
// ten code-driven expansions of CPU, so a live core batches liveReportBatch
// codes, not the simulator's 8. The batch counts the outbox's contracted
// frontier, which a depth-first node can hold under it for a whole subtree —
// work a crash takes with it — so ReportTimeout = RetryDelay bounds how
// stale the outbox gets: Tick's report check flushes it within about two
// RetryDelays, or within yieldEvery expansions when those take longer (a
// tree-replay cluster's sleeps), since a busy node ticks only then.
// Diff gossip's walk rate limit is the core's own 30 clock units, not the
// report path's.
func (cl *Cluster) newCore(inc *incarnation, exp protocol.Expander, id protocol.InstanceID) *protocol.Core {
	cfg := &cl.cfg
	n := inc.n
	c := protocol.New(protocol.NodeID(n.id), protocol.Config{
		Select:         cfg.Select,
		Prune:          cfg.Prune,
		ReportBatch:    liveReportBatch,
		ReportTimeout:  cfg.RetryDelay.Seconds(),
		RequestTimeout: cfg.RetryDelay.Seconds(), // one wait for a probe's answer, one pace after a failure
		RetryDelay:     cfg.RetryDelay.Seconds(),
		RecoveryQuiet:  cfg.RecoveryQuiet.Seconds(),
		DiffGossip:     cfg.DiffGossip,
	}, protocol.Deps{
		Clock:     cl.clock,
		Sender:    &instSender{inc: inc, id: id},
		Expander:  exp,
		Peers:     n.peers,
		Rand:      inc.rng.IntN,
		RandFloat: inc.rng.Float64,
	})
	c.Stagger(cl.clock.Now())
	return c
}

// Crash halts a node mid-run. It serializes with Restart under stopMu so a
// concurrent crash and rebirth of the same node cannot interleave their
// flag and transport updates into a half-dead state.
func (cl *Cluster) Crash(id NodeID) {
	cl.stopMu.Lock()
	if int(id) < len(cl.nodes) {
		cl.nodes[id].crashed.Store(true)
		cl.tr.Crash(id)
	}
	cl.stopMu.Unlock()
}

// Restart reboots a crashed node mid-run under its old identity: it
// re-registers through the transport (fresh inbox, and for TCP a fresh
// listener on its old address), re-enters the predetermined resource pool
// it never left — failures are not directly detectable, so peers kept
// probing it all along — and rebuilds its state purely from the reports,
// tables, and grants it receives. It reopens only the instances it had not
// finished before the crash and that are still unresolved. Restarting a
// node that is not crashed is a no-op.
func (cl *Cluster) Restart(id NodeID) {
	// The whole rebirth happens under stopMu: Run's completion check closes
	// the run under the same lock, so a restart either lands before it (the
	// run extends and waits for the reborn node) or sees stopped and leaves
	// every node untouched — never a half-revived node in a closed run.
	// (AddNode also appends to cl.nodes under this lock.)
	cl.stopMu.Lock()
	defer cl.stopMu.Unlock()
	if int(id) >= len(cl.nodes) {
		return
	}
	n := cl.nodes[id]
	if !n.crashed.Load() {
		return
	}
	if !cl.started || cl.stopped {
		return // not running: the boot spawn or nothing would double-drive it
	}
	inbox := cl.tr.Restart(id)
	if inbox == nil {
		return // transport already torn down
	}
	// Bump the generation first: the dead incarnation's goroutine may still
	// be running, and must see itself orphaned before crashed clears.
	inc := cl.newIncarnation(n, n.gen.Add(1), inbox, nil)
	n.cur = inc
	n.crashed.Store(false)
	cl.wg.Add(1)
	go inc.run()
}

// AddNode grows a running cluster by one brand-new process — elastic
// membership's join, the live counterpart of the simulator's Join events.
// The node gets the next free identity and a fresh transport endpoint (for
// TCP, a fresh listener whose address spreads via the join gossip), starts
// with only the contacts in its view (default: node 0), and announces itself
// to them. The Hello flood absorbs it into every live peer view, the first
// Welcome triggers its completion-table bootstrap, and from then on it
// steals, expands, and reports like any boot-time member. AddNode only works
// on a running cluster; it returns the new identity.
func (cl *Cluster) AddNode(contacts ...NodeID) (NodeID, error) {
	cl.stopMu.Lock()
	defer cl.stopMu.Unlock()
	if !cl.started || cl.stopped {
		return 0, fmt.Errorf("live: AddNode on a cluster that is not running")
	}
	id := NodeID(len(cl.nodes))
	inbox := cl.tr.Add(id)
	if inbox == nil {
		return 0, fmt.Errorf("live: transport already closed")
	}
	if len(contacts) == 0 {
		contacts = []NodeID{0}
	}
	n := &liveNode{id: id, cl: cl}
	view := make([]protocol.NodeID, 0, len(contacts))
	for _, c := range contacts {
		if c != id {
			view = append(view, protocol.NodeID(c))
		}
	}
	n.view.Store(&view)
	inc := cl.newIncarnation(n, 0, inbox, append([]NodeID(nil), contacts...))
	n.cur = inc
	cl.nodes = append(cl.nodes, n)
	cl.wg.Add(1)
	go inc.run()
	return id, nil
}

// stop closes the run unconditionally (timeout path).
func (cl *Cluster) stop() {
	cl.stopMu.Lock()
	cl.closeLocked()
	cl.stopMu.Unlock()
}

// closeLocked closes the run once; callers hold stopMu.
func (cl *Cluster) closeLocked() {
	if !cl.stopped {
		cl.stopped = true
		close(cl.stopAll)
	}
}

// Run starts every node goroutine and blocks until every instance in the
// registry resolved (or no node is left alive) or the timeout expires. The
// run's verdict is the boot problem's resolution.
func (cl *Cluster) Run() Result {
	start := time.Now()
	if cl.cfg.Nemesis != nil {
		// Fault windows are relative to the run, not to construction or the
		// first send.
		cl.cfg.Nemesis.Arm(start)
	}
	cl.stopMu.Lock()
	cl.started = true
	for _, n := range cl.nodes {
		cl.wg.Add(1)
		go n.cur.run()
	}
	cl.stopMu.Unlock()
	deadline := time.After(cl.cfg.Timeout)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	timedOut := false
	var settledAt time.Time
loop:
	for {
		// Crashed nodes never detect anything, so the registry is swept on
		// every tick (and on every detection). A Linger window holds a
		// settled cluster open for late submissions, which reset the window.
		if !cl.sweep(false) {
			settledAt = time.Time{}
		} else if settledAt.IsZero() {
			settledAt = time.Now()
		}
		if !settledAt.IsZero() && time.Since(settledAt) >= cl.cfg.Linger && cl.sweep(true) {
			break
		}
		select {
		case <-cl.wake:
		case <-tick.C:
		case <-deadline:
			timedOut = true
			cl.stop()
			break loop
		}
	}
	cl.wg.Wait()
	defer cl.tr.Close()

	res := Result{Elapsed: time.Since(start)}
	for _, n := range cl.nodes {
		res.Expanded += int(n.expanded.Load())
	}
	cl.instMu.Lock()
	boot := cl.specs[0]
	res.Terminated = boot.resolved && !timedOut
	res.Optimum = boot.optimum
	cl.instMu.Unlock()
	res.OptimumOK = res.Terminated && res.Optimum == boot.trueOpt
	res.Net = cl.tr.NetStats()
	res.MsgsSent, res.BytesSent = res.Net.Sent, res.Net.Bytes
	res.Kinds = KindStats{Sent: res.Net.KindSent, Bytes: res.Net.KindBytes}
	res.Suspicions = cl.detected[member.Suspected].Load()
	res.Exclusions = cl.detected[member.Excluded].Load()
	res.Reabsorbed = cl.detected[member.Reabsorbed].Load()
	return res
}

// PeerView returns a copy of id's current peer view — the membership the
// node would steer work exchange by right now. Soak harnesses use it to
// assert no live node ends a healed run permanently excluded.
func (cl *Cluster) PeerView(id NodeID) []protocol.NodeID {
	cl.stopMu.Lock()
	defer cl.stopMu.Unlock()
	if int(id) >= len(cl.nodes) {
		return nil
	}
	return append([]protocol.NodeID(nil), cl.nodes[id].peers()...)
}

// peers returns the node's current view (crashed members included — failures
// only manifest as unanswered requests). The slice is immutable once
// published; the core reads it without retaining or mutating it.
func (n *liveNode) peers() []protocol.NodeID {
	return *n.view.Load()
}

// learnPeer absorbs a newly learned member into the view (copy-on-write).
// It reports whether the member was news — the signal to forward its Hello
// onward, flooding the join through the cluster from one contact.
func (n *liveNode) learnPeer(id protocol.NodeID) bool {
	if NodeID(id) == n.id {
		return false
	}
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	cur := *n.view.Load()
	for _, p := range cur {
		if p == id {
			return false
		}
	}
	next := make([]protocol.NodeID, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = id
	n.view.Store(&next)
	return true
}

// dropPeer removes an excluded member from the view (copy-on-write) — the
// detector-driven counterpart of the §5.2 view shrink a crash notification
// produces. Re-absorption undoes it via learnPeer.
func (n *liveNode) dropPeer(id protocol.NodeID) {
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	cur := *n.view.Load()
	for i, p := range cur {
		if p == id {
			next := make([]protocol.NodeID, 0, len(cur)-1)
			next = append(next, cur[:i]...)
			next = append(next, cur[i+1:]...)
			n.view.Store(&next)
			return
		}
	}
}

// yieldEvery is how many expansions a busy incarnation runs between yields of
// its processor: a few hundred microseconds of a code-driven problem, and a
// call that returns at once when nothing else is runnable.
const yieldEvery = 64

// liveReportBatch is a live core's ReportBatch (the paper's c): contracted
// codes in the outbox before it flushes a work report. See newCore.
const liveReportBatch = 16

// run is the incarnation goroutine: alternate work and message handling,
// exactly the process model of §5, round-robin across every instance the
// process hosts. It exits when the cluster stops, the node crashes, or a
// restart orphans this incarnation (the generation moved on).
func (inc *incarnation) run() {
	n := inc.n
	defer n.cl.wg.Done()
	for {
		select {
		case <-n.cl.stopAll:
			return
		default:
		}
		if n.gen.Load() != inc.gen {
			// A restart replaced this incarnation; its cores are orphans.
			return
		}
		if n.crashed.Load() {
			// A crashed process halts; drain nothing, say nothing.
			return
		}
		inc.runDue()
		inc.syncInstances()
		// Handle all pending messages.
		drained := false
		for !drained {
			select {
			case env := <-inc.inbox:
				inc.handle(env)
			default:
				drained = true
			}
		}
		e, it, st := inc.mux.Next()
		switch st {
		case protocol.Expand:
			inc.expand(e, it)
			// A node with work never blocks. Hosted on fewer processors than
			// there are busy nodes it would keep one for the scheduler's whole
			// 10 ms slice while the transport's readers, its peers and the
			// collector's mark workers wait behind it: requests sit unread,
			// and the heap runs past its goal by whatever the busy nodes
			// allocate meanwhile (a 4 MB heap read 7–10 MB at the end of such a
			// cycle, which is where a process's peak memory came from). The
			// same turn runs the cores' due duties (Tick).
			if inc.sinceYield++; inc.sinceYield == yieldEvery {
				inc.sinceYield = 0
				inc.mux.Each(func(o *instance.Entry) { o.Core.Tick() })
				runtime.Gosched()
			}
		case protocol.Terminated:
			inc.noteTerminated(e)
		case protocol.Starved:
			inc.starve(e)
		case protocol.Idle:
			// Every hosted instance terminated and was reaped. Keep answering
			// stragglers from the tombstones, and wake on the RetryDelay
			// cadence to poll the registry for newly submitted instances.
			inc.wait(true)
		}
	}
}

// runDue runs the incarnation's own duties whose deadlines have passed. With
// none pending it reads no clock.
func (inc *incarnation) runDue() {
	if math.IsInf(min(inc.helloAt, inc.tickAt), 1) {
		return
	}
	now := inc.n.cl.clock.Now()
	if now >= inc.helloAt {
		inc.announce(now)
	}
	if now >= inc.tickAt {
		inc.tickAt = inc.det.Tick(now)
	}
}

// wait is the one place an incarnation blocks: until a message arrives
// (handled here), the cluster stops, or the clock reaches the earliest
// deadline — every hosted core's WakeAt, the detector's next tick, a
// joiner's next Hello and, when idle, the next registry poll. No deadline,
// no timer. The mux only reaches here when no hosted instance can expand,
// so the wait never withholds the processor from runnable work.
func (inc *incarnation) wait(idle bool) {
	cl := inc.n.cl
	at := min(inc.helloAt, inc.tickAt)
	inc.mux.Each(func(o *instance.Entry) { at = min(at, o.Core.WakeAt()) })
	if idle {
		at = min(at, cl.clock.Now()+cl.cfg.RetryDelay.Seconds())
	}
	var timeout <-chan time.Time
	if !math.IsInf(at, 1) {
		t := time.NewTimer(time.Duration((at - cl.clock.Now()) * float64(time.Second)))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case env := <-inc.inbox:
		inc.handle(env)
	case <-timeout:
	case <-cl.stopAll:
	}
}

// handle demultiplexes one delivered message to its instance's core. The
// membership handshake (Hello/Welcome) is driver business — views live in
// the driver — so those two kinds are intercepted before any core, and a
// heartbeat table goes to the detector first.
// Untagged messages are the boot problem's (instance 0), tagged ones carry
// their instance; either way they route through the mux, with reaped
// instances answered from their tombstone and unknown ones triggering a
// registry poll — a submitted instance's traffic can outrun the submission
// epoch's propagation to this node.
func (inc *incarnation) handle(env Envelope) {
	// Every delivered envelope is evidence its sender is alive — the
	// piggybacked heartbeat. This must precede routing: a suspect's work
	// request clears the suspicion before the core decides how to answer.
	if inc.det != nil {
		inc.det.Heard(protocol.NodeID(env.From), inc.n.cl.clock.Now())
	}
	pm, ok := env.Msg.(protocol.Msg)
	switch m := pm.(type) {
	case protocol.Hello:
		inc.onHello(env.From, m)
		return
	case protocol.Welcome:
		inc.onWelcome(env.From, m)
		return
	case protocol.Heartbeat:
		if inc.det != nil {
			inc.det.Gossip(m, inc.n.cl.clock.Now())
		}
		// Its scalars reach the boot core as an explicit heartbeat's would.
		pm = protocol.Ping{Incumbent: m.Incumbent, ActAge: m.ActAge}
	}
	if !ok {
		return
	}
	var id protocol.InstanceID
	if im, ok := pm.(protocol.InstMsg); ok {
		id, pm = im.Instance, im.Msg
	}
	e, v := inc.mux.Route(id)
	if v == instance.RouteUnknown {
		inc.syncInstances()
		e, v = inc.mux.Route(id)
	}
	switch v {
	case instance.RouteOpen:
		e.Core.HandleMessage(protocol.NodeID(env.From), pm)
	case instance.RouteReaped:
		// The instance finished here. A straggler's work request is answered
		// with the §5.4 root report carrying the final incumbent — the same
		// answer a terminated core gives — so the requester terminates too;
		// everything else about a finished instance is droppable.
		if _, isReq := pm.(protocol.WorkRequest); isReq {
			if tomb, ok := inc.mux.Reaped(id); ok {
				(&instSender{inc: inc, id: id}).Send(protocol.NodeID(env.From),
					protocol.RootReport(tomb, 0))
			}
		}
	}
}

// noteTerminated finishes one instance on this node: it records the
// detection in the registry and reaps the instance — its completion tables
// go back to the shared pool, and its tombstone keeps answering straggler
// work requests.
func (inc *incarnation) noteTerminated(e *instance.Entry) {
	inc.n.cl.noteInstanceDone(e.Data.(*instSpec), inc.n.id, e.Core.Incumbent())
	inc.mux.Reap(e.ID)
}

// hello is this node's join announcement, which the failure detector also
// sends as its probe of an excluded peer.
func (inc *incarnation) hello() protocol.Hello {
	h := protocol.Hello{ID: protocol.NodeID(inc.n.id), Addr: inc.n.cl.tr.AddrOf(inc.n.id)}
	h.Incumbent, h.ActAge = inc.bootScalars()
	return h
}

// bootScalars returns what the untagged membership messages carry: the boot
// core's incumbent and activity age. An incarnation that never opened the
// boot problem knows no incumbent and no activity; an infinite age moves no
// receiver's activity anchor.
func (inc *incarnation) bootScalars() (incumbent, actAge float64) {
	if inc.boot == nil {
		return math.Inf(1), math.Inf(1)
	}
	return inc.boot.Incumbent(), inc.boot.ActivityAge()
}

// onHello absorbs a join announcement (§5.2 over the canonical wire): learn
// the joiner's address and membership, answer with this node's own view so
// the joiner can populate its pool and bootstrap its table, and — when the
// joiner was news — forward the hello to the rest of the view, flooding the
// join through the cluster from a single contact. Views reached at different
// times stay inconsistent for a while; that is safe, as the resource pool
// only steers randomized work exchange (see the package comment of
// internal/member). The detector learns every member the view does.
func (inc *incarnation) onHello(from NodeID, h protocol.Hello) {
	n := inc.n
	cl := n.cl
	cl.tr.Learn(NodeID(h.ID), h.Addr)
	fresh := n.learnPeer(h.ID)
	if inc.det != nil {
		inc.det.Learn(h.ID, cl.clock.Now())
	}
	view := n.peers()
	peers := make([]protocol.Peer, 0, len(view)+1)
	peers = append(peers, protocol.Peer{ID: protocol.NodeID(n.id), Addr: cl.tr.AddrOf(n.id)})
	for _, p := range view {
		if p == h.ID {
			continue
		}
		peers = append(peers, protocol.Peer{ID: p, Addr: cl.tr.AddrOf(NodeID(p))})
	}
	w := protocol.Welcome{Peers: peers}
	w.Incumbent, w.ActAge = inc.bootScalars()
	cl.tr.Send(n.id, NodeID(h.ID), w)
	if fresh {
		for _, p := range view {
			if p == h.ID || NodeID(p) == from {
				continue
			}
			cl.tr.Send(n.id, NodeID(p), h)
		}
	}
}

// onWelcome merges a join answer: the responder's whole view, addresses
// included. The responder's activity evidence anchors the fresh core's
// remote-activity clock (an empty table must not read as global quiescence),
// and until the first subtree lands the joiner pulls its completion-table
// bootstrap — the Full-root subtree transfer — from whoever welcomed it.
func (inc *incarnation) onWelcome(from NodeID, w protocol.Welcome) {
	n := inc.n
	for _, p := range w.Peers {
		n.cl.tr.Learn(NodeID(p.ID), p.Addr)
		n.learnPeer(p.ID)
		if inc.det != nil {
			inc.det.Learn(p.ID, n.cl.clock.Now())
		}
	}
	inc.helloAt = math.Inf(1) // somebody answered: the announcing is over
	c := inc.boot
	if c == nil {
		inc.welcomed = true // nothing to bootstrap: the boot problem resolved
		return
	}
	c.NoteRemoteActivity(w.ActAge)
	// A Welcome from a peer this detector recently re-absorbed answers our
	// probe after a severed link: both sides completed work the other never
	// heard about, so pull the Full-root subtree to catch up — the same
	// bootstrap a brand-new joiner does.
	if !inc.welcomed || c.Table().Len() == 0 || inc.rejoin[from] {
		delete(inc.rejoin, from)
		inc.welcomed = true
		c.Bootstrap(protocol.NodeID(from))
	}
}

// announce is the joiner's half of the handshake: until somebody welcomes
// it, it re-announces itself to its contacts every RetryDelay.
func (inc *incarnation) announce(now float64) {
	cl := inc.n.cl
	inc.helloAt = now + cl.cfg.RetryDelay.Seconds()
	h := inc.hello()
	for _, c := range inc.contacts {
		cl.tr.Send(inc.n.id, c, h)
	}
}

// expand performs one unit of work for one instance: tree replays sleep the
// scaled recorded cost and then translate the recorded outcome; code-driven
// problems spend their time inside Outcome itself, re-deriving bounds from
// the initial data. Either way the elapsed seconds feed the instance core's
// adaptive pacing.
func (inc *incarnation) expand(e *instance.Entry, it protocol.Item) {
	sp := e.Data.(*instSpec)
	sleep := 0.0
	if sp.sleepOf != nil {
		sleep = sp.sleepOf(it)
		time.Sleep(time.Duration(sleep * float64(time.Second)))
	}
	clock := inc.n.cl.clock
	start := clock.Now()
	out := e.Exp.Outcome(it)
	if inc.n.crashed.Load() || inc.n.gen.Load() != inc.gen {
		return // the work died with this incarnation
	}
	e.Core.OnExpanded(it, out, sleep+clock.Now()-start)
	inc.n.expanded.Add(1)
	if sp.id != 0 {
		sp.expanded.Add(1)
	}
}

// starve runs every hosted core's due duties (Tick), then one starving
// instance's out-of-work decision: a recovery at once, else the wait.
func (inc *incarnation) starve(e *instance.Entry) {
	inc.mux.Each(func(o *instance.Entry) { o.Core.Tick() })
	if e.Core.Starve() != protocol.StarveRecover {
		inc.wait(false)
	} else if plan := e.Core.PlanRecovery(); len(plan) > 0 {
		e.Core.Adopt(plan)
	}
}
