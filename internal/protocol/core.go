// Package protocol implements the paper's §5 node state machine exactly
// once, independent of clock and transport: the active-problem pool with the
// selection rules of §2, the contracted completed-problem table and report
// outbox of §5.3.2, adaptive report pacing, on-demand load balancing
// (work request / grant / deny), failure recovery via the table complement,
// and the almost-implicit termination detection of §5.4 — together with the
// canonical wire-message set and its binary codec.
//
// A Core never schedules anything and never blocks. It talks to the world
// through three small interfaces — Clock (what time is it), Sender (emit a
// canonical message), Expander (resolve a self-contained code into a
// problem) — plus a handful of function hooks, so the same state machine
// runs under the deterministic virtual-time simulator (internal/dbnb) and
// the wall-clock goroutine runtime (internal/live). Drivers own everything
// the substrate defines: one timer, busy periods, cost accounting, crash
// delivery. The Core owns every protocol decision, every deadline included:
// a driver calls Tick when WakeAt arrives, and that is all of its timing.
package protocol

import (
	"math"
	"slices"
	"sync"

	"gossipbnb/internal/code"
	"gossipbnb/internal/ctree"
)

// NodeID identifies a protocol participant. Drivers map it to their own
// process identifiers (sim.NodeID, live.NodeID).
type NodeID int

// Clock supplies the protocol's notion of time, in seconds. The simulator
// passes virtual time; the live runtime passes wall-clock seconds since
// start. The protocol never compares clocks across nodes — only local
// differences and relayed ages, which survive the unsynchronized clocks
// of §4.
type Clock interface {
	Now() float64
}

// Sender transmits one canonical message. Sends must not block and may
// silently drop — the asynchronous model of §4.
type Sender interface {
	Send(to NodeID, m Msg)
}

// BroadcastSender is an optional Sender capability: deliver one message to
// a whole peer set. The termination broadcast of §5.4 — the only procs-wide
// fan-out in the protocol, sent once by each process that detects
// termination — dispatches through it when available, letting a transport
// turn the fan-out into one group delivery per destination batch. A plain
// Sender gets the equivalent per-peer Send loop.
type BroadcastSender interface {
	Broadcast(peers []NodeID, m Msg)
}

// Expander is the full expansion contract of §5.3.1: subproblem codes are
// self-contained, so together with the initial problem data an Expander can
// resolve any code into live pool state and branch it. Implementations are
// btree.Expander (replaying a recorded basic tree) and bnb.Expander
// (re-deriving solver state from the initial data); this package knows
// neither problem representation. An Expander need not be safe for
// concurrent use: each process owns one.
type Expander interface {
	// Locate resolves a self-contained subproblem code into an active-problem
	// Item (bound plus the expander's own Ref/State handle). ok is false when
	// the code does not identify a node of the problem being solved. This is
	// the cold path: codes arriving in a grant or re-created by recovery.
	Locate(c code.Code) (Item, bool)
	// Root returns the seed item for the original problem.
	Root() Item
	// Outcome branches it, revealing feasibility, value, and children. The
	// children carry their handles, so expanding one later resolves nothing.
	// An item whose handle is unset (built from a bare code) must still
	// work, at Locate's price. The Children slice may be the expander's
	// scratch: it is valid until the next call on the same expander, so a
	// driver hands it to OnExpanded (which copies the items) before then.
	Outcome(it Item) Outcome
}

// SelectRule chooses which active problem a process branches next (§2).
type SelectRule int

// Selection rules.
const (
	BestFirst SelectRule = iota
	DepthFirst
)

// Config carries the protocol parameters. All durations are in the driver's
// clock unit (seconds).
type Config struct {
	// Select is the local selection rule (§2).
	Select SelectRule
	// Prune enables incumbent-based elimination.
	Prune bool
	// ReportBatch is c: completed codes accumulated before a work report is
	// sent. ReportFanout is m: how many random members receive each report.
	ReportBatch  int
	ReportFanout int
	// ReportTimeout flushes a non-empty outbox that has waited this long,
	// checked once per ReportTimeout (Tick).
	ReportTimeout float64
	// AdaptiveReports scales the outbox flush timeout with the observed
	// per-subproblem execution time (§6.3.1, §7).
	AdaptiveReports bool
	// MinPoolToShare is how many active problems a process must hold before
	// it grants work away.
	MinPoolToShare int
	// RequestTimeout bounds the wait for a work request's answer. RetryDelay
	// paces the next request after a failed attempt (WakeAt).
	RequestTimeout float64
	RetryDelay     float64
	// RecoveryPatience is how many consecutive failed work requests a
	// process tolerates before it presumes work was lost and recovers an
	// uncompleted problem from the complement of its table (§5.3.2).
	RecoveryPatience int
	// RecoveryQuiet is the minimum window without any remote progress
	// before a starving process may presume work was lost. Jittered ±25%
	// per attempt so concurrent recoverers stagger.
	RecoveryQuiet float64
	// DiffGossip switches the report path to anti-entropy diff gossip:
	// reports and table pushes carry the table's content digest (plus the
	// recent-delta codes a report would have carried anyway), and a receiver
	// whose digest differs walks the sender's subtree digests to pull only
	// what it is missing. Off by default — legacy full-frontier gossip is the
	// bit-identical baseline the golden tests pin.
	DiffGossip bool
}

func (c Config) withDefaults() Config {
	if c.ReportBatch <= 0 {
		c.ReportBatch = 8
	}
	if c.ReportFanout <= 0 {
		c.ReportFanout = 2
	}
	if c.ReportTimeout <= 0 {
		c.ReportTimeout = 30
	}
	if c.MinPoolToShare <= 0 {
		c.MinPoolToShare = 2
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 3
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 1
	}
	if c.RecoveryPatience <= 0 {
		c.RecoveryPatience = 3
	}
	if c.RecoveryQuiet <= 0 {
		c.RecoveryQuiet = 10
	}
	return c
}

// pushInterval is the period of the whole-table push to one random member
// (§5.2, Tick), beside ReportTimeout's default of 30 clock units.
const pushInterval = 120

// syncInterval rate-limits anti-entropy walks: a core starts at most one
// digest walk per interval, in clock units. During convergence peers' tables
// differ almost always (deltas are in flight), so walking on every digest
// mismatch would trade the report savings back for request storms; the walk
// exists to repair real divergence — loss, restarts, partitions — not
// convergence lag. It is ReportTimeout's default, and a live core's
// millisecond ReportTimeout does not shorten it.
const syncInterval = 30.0

// maxShare caps the problems one work grant carries.
const maxShare = 16

// Anti-entropy walk tuning.
const (
	// syncLeafMax is the subtree-frontier size at or below which a sync
	// responder inlines the codes instead of describing another level of
	// child digests. Every level of descent costs a request/reply pair per
	// differing child, so the threshold is set where inlining a frontier
	// chunk beats the structural traffic of walking it — a quiescent table's
	// whole diff then transfers in a handful of inline replies while the
	// digest comparison still prunes the subtrees the peers agree on.
	syncLeafMax = 64
	// maxSyncRequests caps in-flight subtree requests per walk. Replies
	// release budget, so a deep walk still completes — a converging core
	// must be able to pull its whole remaining diff, or termination stalls
	// and recovery re-expands work — while the cap bounds how much a single
	// digest mismatch fans out at once.
	maxSyncRequests = 32
	// syncQuietJitter spreads the quiet gate: each divergent digest draws a
	// quiet threshold uniform in [syncInterval, (1+jitter)·syncInterval), so
	// the longer a core's delta stream has been silent the likelier it is to
	// start repairing. At quiescence this thins the walker herd — every
	// starving member sees the same global silence, but only one converged
	// table is needed (its root broadcast terminates everyone), so the few
	// early walkers finish the job while the rest never pay for a pull.
	syncQuietJitter = 8.0
)

// Deps wires a Core to its driver. Clock, Sender, Expander, Peers, and Rand
// are required; RandFloat and the hooks are optional.
type Deps struct {
	Clock    Clock
	Sender   Sender
	Expander Expander
	// Peers returns the members this process may contact (its current view,
	// excluding itself). Crashed members may appear — failures are not
	// directly detectable (§4), they only manifest as unanswered requests.
	Peers func() []NodeID
	// Rand returns a uniform int in [0, n). All stochastic protocol choices
	// draw from it, so a deterministic source makes the Core deterministic.
	Rand func(n int) int
	// RandFloat returns a uniform float64 in [0, 1), used to jitter the
	// recovery quiet window and to stagger the periodic chains (Stagger). nil
	// means no jitter.
	RandFloat func() float64
	// OnComplete fires for every locally completed subproblem entering the
	// table (not for completions learned from peers).
	OnComplete func(c code.Code)
	// OnTableChange fires after any table mutation — completion or merge —
	// for storage accounting.
	OnTableChange func()
}

// Counters tallies protocol-level events, for metrics and results.
type Counters struct {
	Expanded      int // subproblems whose branching outcome this core applied
	ReportsSent   int // work-report messages sent
	ReportCodes   int // codes carried by those reports (after compression)
	ReportedComps int // completions covered by flushed reports (before compression)
	TablesSent    int // full-table gossip messages sent
	WorkRequests  int // work-request messages sent
	WorkSent      int // subproblems shipped to requesters
	RecoveryPlans int // non-empty complement recovery plans drawn
	Recoveries    int // subproblems those plans re-created (adopted into the pool)
	PeakPool      int // max active problems held at once
}

// Merge folds another tally into c, for drivers that accumulate event counts
// across a process's crash-restart incarnations: counts add, PeakPool keeps
// the maximum.
func (c Counters) Merge(o Counters) Counters {
	c.Expanded += o.Expanded
	c.ReportsSent += o.ReportsSent
	c.ReportCodes += o.ReportCodes
	c.ReportedComps += o.ReportedComps
	c.TablesSent += o.TablesSent
	c.WorkRequests += o.WorkRequests
	c.WorkSent += o.WorkSent
	c.RecoveryPlans += o.RecoveryPlans
	c.Recoveries += o.Recoveries
	if o.PeakPool > c.PeakPool {
		c.PeakPool = o.PeakPool
	}
	return c
}

// Core is the per-process protocol state machine. It is not safe for
// concurrent use: the driver must serialize all calls (the simulator is
// single-threaded by construction; the live runtime confines each Core to
// its node goroutine).
type Core struct {
	id  NodeID
	cfg Config
	d   Deps

	pool   pool
	table  *ctree.Table
	outbox *ctree.Table // new locally completed subproblems, contracted

	incumbent  float64
	lastReport float64
	outboxAdds int     // completions inserted into the outbox since last flush
	ewmaCost   float64 // smoothed per-subproblem execution time (adaptive reports)
	terminated bool
	// learned marks a table that was completed by a message which itself
	// carried the root code: this core did not detect termination, it was
	// told, and forwards the news instead of broadcasting it (terminate).
	learned bool
	// holding queues in held the work reports that Next's eliminations
	// flush, which go out when Next returns — unless the eliminations
	// detected termination: the root report broadcast then subsumes them,
	// and a receiver handling one behind it would only detect later.
	holding bool
	// reqPending and syncHot belong to the idle discipline and the
	// anti-entropy walk below; they sit with the other flags, which keeps
	// the Core inside the 512-byte allocation size class.
	reqPending bool
	syncHot    bool
	held       []heldReport

	// The idle discipline (WakeAt): the outstanding request (reqPending) and
	// its deadline, the retry pace (0 = none), and the consecutive failed
	// attempts.
	reqDeadline float64
	paceUntil   float64
	failedReqs  int
	// The periodic duties (Tick): report check, table push, and bootstrap
	// retry with the peer last asked. +Inf until Stagger or Bootstrap.
	reportAt float64
	pushAt   float64
	bootAt   float64
	bootPeer NodeID
	// pooled is scratch for the pooled-code guard: the set of every code
	// currently in the pool, rebuilt on demand when a grant or recovery
	// adoption arrives. At-least-once delivery means the same code can reach
	// this process twice — a duplicated grant, or a delayed grant racing the
	// complement recovery that already re-created its region — and pooling it
	// twice expands the whole subtree twice locally. The set lives only on
	// those rare paths, so the push/pop hot path stays untouched, and it is
	// allocated on the first of them: most cores of a big run never meet one.
	pooled *ctree.Set
	// lastProgress is the last remote progress: a grant, or a novel
	// report/table. remoteAct anchors the freshest evidence that some OTHER
	// process was computing (merged from message ages); selfBusy anchors
	// this process's own last computation. Outgoing ages use both; the
	// recovery gate uses only remote evidence — a survivor's own work must
	// not stop it from presuming its dead peers' work lost.
	lastProgress float64
	remoteAct    float64
	selfBusy     float64

	// Anti-entropy walk state (DiffGossip only). lastSync is when the last
	// digest walk started (-Inf = never, so a fresh core — including a
	// crash-restart rejoin — syncs on its first divergent digest); syncOut
	// is the in-flight subtree-request budget of the current walk. lastDelta
	// is the last table change from the delta stream — a local completion or
	// a novel gossiped code, NOT a walk pull — anchoring the quiet gate that
	// keeps walks out of mid-run convergence; a walk's own pulls must not
	// re-arm the gate or endgame repair would crawl one round per interval.
	// syncHot (with the flags above) marks a committed aggregator: it passed
	// the quiet gate once and keeps walking round after round (one walk in
	// flight at a time) until its table converges or the delta stream
	// resumes.
	lastSync  float64
	syncOut   int
	lastDelta float64

	cnt Counters
}

// New builds a Core. Deps must carry non-nil Clock, Sender, Expander, Peers,
// and Rand.
func New(id NodeID, cfg Config, d Deps) *Core {
	return &Core{
		id:        id,
		cfg:       cfg.withDefaults(),
		d:         d,
		pool:      pool{dfs: cfg.Select == DepthFirst},
		table:     newPooledTable(),
		outbox:    newPooledTable(),
		incumbent: math.Inf(1),
		lastSync:  math.Inf(-1),
		reportAt:  math.Inf(1),
		pushAt:    math.Inf(1),
		bootAt:    math.Inf(1),
	}
}

// tablePool recycles completion tables — trie-vertex free lists included —
// across core lifetimes, so a process multiplexing a stream of instances
// reuses the arenas of the instances it reaped instead of regrowing them.
var tablePool = sync.Pool{New: func() any { return ctree.New() }}

func newPooledTable() *ctree.Table {
	return tablePool.Get().(*ctree.Table)
}

// Release returns the core's completion table and outbox to the shared pool,
// for drivers reaping a finished instance. The core stays usable as a
// tombstone — Incumbent, Terminated, and ActivityAge still answer — but its
// tables are replaced by fresh empties, so callers must not expect table
// content to survive.
func (c *Core) Release() {
	c.table.Reset()
	c.outbox.Reset()
	tablePool.Put(c.table)
	tablePool.Put(c.outbox)
	c.table = ctree.New()
	c.outbox = ctree.New()
}

// --- state accessors ---------------------------------------------------------

// Terminated reports whether this core detected termination.
func (c *Core) Terminated() bool { return c.terminated }

// Incumbent returns the best solution value known to this core.
func (c *Core) Incumbent() float64 { return c.incumbent }

// PoolLen returns the number of active problems held.
func (c *Core) PoolLen() int { return len(c.pool.items) }

// Table exposes the completion table for driver-side storage accounting.
func (c *Core) Table() *ctree.Table { return c.table }

// Counters returns a snapshot of the protocol event tallies.
func (c *Core) Counters() Counters { return c.cnt }

// Seed hands the core an initial problem (process 0 gets the root; everyone
// else starts empty and pulls work through load balancing).
func (c *Core) Seed(it Item) {
	c.pool.push(it)
	c.notePool()
}

func (c *Core) notePool() {
	if n := c.pool.Len(); n > c.cnt.PeakPool {
		c.cnt.PeakPool = n
	}
}

// ActivityAge returns how long ago, as far as this core knows, some process
// was actively computing. A core that holds active problems reports zero;
// otherwise the freshest of its own past activity and the relayed remote
// evidence.
func (c *Core) ActivityAge() float64 {
	if !c.terminated && c.pool.Len() > 0 {
		return 0
	}
	anchor := c.selfBusy
	if c.remoteAct > anchor {
		anchor = c.remoteAct
	}
	return c.d.Clock.Now() - anchor
}

// noteActivity merges activity evidence from a received message.
func (c *Core) noteActivity(age float64) {
	if cand := c.d.Clock.Now() - age; cand > c.remoteAct {
		c.remoteAct = cand
	}
}

func (c *Core) observeIncumbent(v float64) {
	if v < c.incumbent {
		c.incumbent = v
	}
}

// --- the main decision point -------------------------------------------------

// Status tells the driver what the core wants to do next.
type Status int

// Next statuses.
const (
	// Idle: the core terminated earlier; there is nothing to do.
	Idle Status = iota
	// Expand: pay the returned item's cost, branch it, and report the
	// outcome via OnExpanded.
	Expand
	// Starved: the pool is empty; call Starve to run load balancing.
	Starved
	// Terminated: the table reached the root code just now and the core has
	// said so — the root-report broadcast of §5.4 if it detected termination
	// itself, the ReportFanout-wide forward if a peer's root code told it.
	// Returned exactly once.
	Terminated
)

// Next is invoked whenever the process becomes free: after a work unit,
// after processing messages, after a timer. It decides the next activity,
// performing eliminations (and, if contraction reaches the root, termination
// detection) along the way.
func (c *Core) Next() (Item, Status) {
	if c.terminated {
		return Item{}, Idle
	}
	if c.table.Complete() {
		c.terminate()
		return Item{}, Terminated
	}
	c.holding = true
	for c.pool.Len() > 0 {
		it := c.pool.pop()
		if c.table.Contains(it.Code) {
			continue // completed elsewhere in the meantime; drop silently
		}
		if c.cfg.Prune && it.Bound >= c.incumbent {
			// Eliminate: the problem is fathomed without expansion, which
			// completes it (nothing below it can matter).
			c.complete(it.Code)
			if c.table.Complete() {
				c.release(false)
				c.terminate()
				return Item{}, Terminated
			}
			continue
		}
		c.release(true)
		return it, Expand
	}
	c.release(true)
	return Item{}, Starved
}

// heldReport is one work report send that Next holds (Core.holding).
type heldReport struct {
	to NodeID
	m  Msg
	n  int // the codes it carries
}

// release ends Next's hold on work reports, sending them or dropping them.
func (c *Core) release(send bool) {
	c.holding = false
	if send {
		for _, h := range c.held {
			c.sendReport(h.to, h.m, h.n)
		}
	}
	clear(c.held)
	c.held = c.held[:0]
}

// sendReport sends one work report of n codes.
func (c *Core) sendReport(to NodeID, m Msg, n int) {
	c.d.Sender.Send(to, m)
	c.cnt.ReportsSent++
	c.cnt.ReportCodes += n
}

// Outcome is what branching one subproblem revealed: the node's own value
// (if feasible) and its children. An empty Children slice means a leaf.
type Outcome struct {
	Feasible bool
	Value    float64
	Children []Item
}

// OnExpanded applies the branching outcome of it. elapsed is the execution
// time the driver charged for the expansion, feeding the smoothed
// per-subproblem cost that paces adaptive reports.
func (c *Core) OnExpanded(it Item, out Outcome, elapsed float64) {
	c.selfBusy = c.d.Clock.Now()
	if c.ewmaCost == 0 {
		c.ewmaCost = elapsed
	} else {
		c.ewmaCost += 0.2 * (elapsed - c.ewmaCost)
	}
	c.cnt.Expanded++
	if out.Feasible && out.Value < c.incumbent {
		c.incumbent = out.Value
	}
	if len(out.Children) == 0 {
		c.complete(it.Code)
		return
	}
	for _, ch := range out.Children {
		if c.table.Contains(ch.Code) {
			continue // already completed somewhere
		}
		if c.cfg.Prune && ch.Bound >= c.incumbent {
			c.complete(ch.Code) // eliminated at generation
			continue
		}
		c.pool.push(ch)
	}
	c.notePool()
}

// complete records the completion of a subproblem: into the table (for
// termination detection and duplicate suppression) and into the outbox (to
// be gossiped as a work report).
func (c *Core) complete(cd code.Code) {
	if changed, err := c.table.Insert(cd); err != nil || !changed {
		return
	}
	c.lastDelta = c.d.Clock.Now()
	if changed, _ := c.outbox.Insert(cd); changed {
		c.outboxAdds++
	}
	if c.d.OnComplete != nil {
		c.d.OnComplete(cd)
	}
	if c.d.OnTableChange != nil {
		c.d.OnTableChange()
	}
	if c.outbox.Len() >= c.cfg.ReportBatch {
		c.FlushReport()
	}
}

// --- reporting and gossip ----------------------------------------------------

// FlushReport flushes the outbox as a work report to ReportFanout random
// members. Compression already happened: the outbox is a contracted table,
// and the report ships its snapshot, as SendTable ships the table's — one
// arena copy, which the receivers merge trie to trie — while the outbox
// recycles its own vertices for the next batch.
func (c *Core) FlushReport() {
	n := c.outbox.Len()
	if n == 0 {
		return
	}
	s := c.outbox.Snapshot()
	c.outbox.Reset()
	c.cnt.ReportedComps += c.outboxAdds
	c.outboxAdds = 0
	c.lastReport = c.d.Clock.Now()
	peers := c.d.Peers()
	if len(peers) == 0 {
		return // lone process: nothing to gossip, its own table suffices
	}
	var m Msg = Report{table: s, Incumbent: c.incumbent, ActAge: c.ActivityAge()}
	if c.cfg.DiffGossip {
		// Diff mode: the same delta codes, plus the table digest so the
		// receiver can detect divergence beyond the delta and pull what it
		// is missing (maybeSync on the receiving side).
		m = DigestReport{Digest: c.table.Digest(), table: s, Incumbent: c.incumbent, ActAge: c.ActivityAge()}
	}
	for i := 0; i < c.cfg.ReportFanout; i++ {
		to := peers[c.d.Rand(len(peers))]
		if c.holding {
			c.held = append(c.held, heldReport{to, m, n})
		} else {
			c.sendReport(to, m, n)
		}
	}
}

// ReportOverdue reports whether a non-empty outbox has gone stale ("the list
// has not been updated for a long time"). With AdaptiveReports the staleness
// threshold tracks how long this process actually needs to fill a batch —
// roughly ReportBatch times its smoothed per-subproblem time — so
// coarse-granularity runs stop shipping half-empty reports at a fixed
// wall-clock cadence.
func (c *Core) ReportOverdue() bool {
	if c.terminated {
		return false
	}
	timeout := c.cfg.ReportTimeout
	if c.cfg.AdaptiveReports {
		if adaptive := float64(c.cfg.ReportBatch) * c.ewmaCost; adaptive > timeout {
			timeout = adaptive
		}
	}
	return c.outbox.Len() > 0 && c.d.Clock.Now()-c.lastReport >= timeout
}

// SendTable pushes the full table to one member (§5.2's consistency gossip).
// The push carries the table's snapshot, copied once per table state however
// many pushes go out before the next completion; the receiver merges it trie
// to trie. In diff mode the push is a bare digest: the receiver pulls only
// the subtrees it is actually missing instead of absorbing the whole
// frontier — the size-with-progress term this refactor removes from
// steady-state traffic.
func (c *Core) SendTable(to NodeID) {
	if c.cfg.DiffGossip {
		c.d.Sender.Send(to, DigestReport{Digest: c.table.Digest(), table: ctree.Empty(), Incumbent: c.incumbent, ActAge: c.ActivityAge()})
		c.cnt.TablesSent++
		return
	}
	c.d.Sender.Send(to, TableMsg{table: c.table.Snapshot(), Incumbent: c.incumbent, ActAge: c.ActivityAge()})
	c.cnt.TablesSent++
}

// --- load balancing and recovery ---------------------------------------------

// StarveDecision is what a starving process should do.
type StarveDecision int

// Starve decisions.
const (
	// StarveWait: nothing was sent — a request is outstanding, the retry
	// pace runs, or a lone process is inside the recovery quiet window. The
	// driver calls again at WakeAt or when a message arrives.
	StarveWait StarveDecision = iota
	// StarveRequested: a work request went out. The core bounds the wait
	// itself; the driver calls again at WakeAt or when a message arrives.
	StarveRequested
	// StarveRecover: enough failed attempts and a quiet window with no
	// remote progress — presume work lost and run PlanRecovery/Adopt.
	StarveRecover
)

// Starve runs the out-of-work decision of §5: wait while a request is
// outstanding or the retry pace runs; otherwise flush any pending report
// (lightly loaded processes send more work reports, §6.3.1), then either
// probe a random member for work or — when requests keep failing and the
// whole system has looked inactive for a quiet window — recover.
func (c *Core) Starve() StarveDecision {
	c.expire()
	now := c.d.Clock.Now()
	if c.terminated || c.reqPending || now < c.paceUntil || c.pool.Len() > 0 {
		return StarveWait
	}
	c.paceUntil = 0
	c.FlushReport()
	peers := c.d.Peers()
	if c.failedReqs >= c.cfg.RecoveryPatience || len(peers) == 0 {
		// Enough failed attempts to suspect lost work — but only presume
		// failure after a quiet window with no remote progress at all;
		// during start-up, starvation just means the work has not spread
		// yet, and adopting the complement of an empty table would make
		// every process redo the root.
		quiet := c.cfg.RecoveryQuiet
		if c.d.RandFloat != nil {
			quiet *= 0.75 + 0.5*c.d.RandFloat()
		}
		fresh := c.lastProgress
		if c.remoteAct > fresh {
			fresh = c.remoteAct
		}
		if now-fresh >= quiet {
			return StarveRecover
		}
		if len(peers) == 0 {
			// Alone and inside the quiet window: try again later.
			c.fail(now)
			return StarveWait
		}
		// Keep probing; the counter stays at the threshold.
	}
	if c.failedReqs > 0 {
		// Starving: suspect termination and push the table to a random
		// member, spreading completion information faster (§6.3.1).
		c.SendTable(peers[c.d.Rand(len(peers))])
	}
	c.d.Sender.Send(peers[c.d.Rand(len(peers))], WorkRequest{Incumbent: c.incumbent, ActAge: c.ActivityAge()})
	c.cnt.WorkRequests++
	c.reqPending = true
	c.reqDeadline = now + c.cfg.RequestTimeout
	return StarveRequested
}

// WakeAt returns when the driver should next call Tick: the earliest of
// StarveAt and the three periodic deadlines; +Inf once terminated.
func (c *Core) WakeAt() float64 {
	if c.terminated {
		return math.Inf(1)
	}
	return min(c.StarveAt(), c.reportAt, c.pushAt, c.bootAt)
}

// StarveAt is WakeAt's load-balancing part. It settles an overdue request,
// then returns the request's deadline, else the pace's end — still due once
// it ran out, so a driver asking late wakes at once — else +Inf.
func (c *Core) StarveAt() float64 {
	if c.expire(); c.reqPending {
		return c.reqDeadline
	} else if c.paceUntil > 0 {
		return c.paceUntil
	}
	return math.Inf(1)
}

// Stagger starts the report check and the table push from time at, each
// offset by one jitter draw times its period so that processes do not
// synchronize. A driver calls it once, when the core comes up.
func (c *Core) Stagger(at float64) {
	jitter := 0.0
	if c.d.RandFloat != nil {
		jitter = c.d.RandFloat()
	}
	c.reportAt = at + jitter*c.cfg.ReportTimeout
	c.pushAt = at + jitter*pushInterval
}

// Tick performs every duty due by now, busy or not: an overdue request fails
// and an ended pace clears (Starve would act again); the report check
// flushes an overdue outbox; the push sends the table to a random member
// (§5.2); and an empty table asks for a bootstrap again, from a random member
// or the peer last asked. Each periodic deadline moves on by its period.
func (c *Core) Tick() {
	if c.terminated {
		return
	}
	now := c.d.Clock.Now()
	if c.expire(); c.paceUntil > 0 && now >= c.paceUntil {
		c.paceUntil = 0
	}
	if now >= c.reportAt {
		if c.ReportOverdue() {
			c.FlushReport()
		}
		c.reportAt = now + c.cfg.ReportTimeout
	}
	if now >= c.pushAt {
		if peers := c.d.Peers(); len(peers) > 0 {
			c.SendTable(peers[c.d.Rand(len(peers))])
		}
		c.pushAt = now + pushInterval
	}
	if now >= c.bootAt {
		if c.bootAt = math.Inf(1); c.table.Len() == 0 {
			if peers := c.d.Peers(); len(peers) > 0 {
				c.bootPeer = peers[c.d.Rand(len(peers))]
			}
			c.Bootstrap(c.bootPeer)
		}
	}
}

// expire settles an overdue request as one failed attempt at its deadline,
// which also anchors the retry pace; an answer arriving later is
// unsolicited.
func (c *Core) expire() {
	if c.reqPending && c.d.Clock.Now() >= c.reqDeadline {
		c.fail(c.reqDeadline)
	}
}

// fail ends the request, if any, as a failed attempt at time at, and paces.
func (c *Core) fail(at float64) {
	c.reqPending = false
	c.failedReqs++
	c.paceUntil = at + c.cfg.RetryDelay
}

// RequestFailed counts the outstanding request, if any, as failed, without a
// retry pace: for a driver keeping its own request timer and pace instead of
// calling Tick at WakeAt.
func (c *Core) RequestFailed() {
	if c.reqPending {
		c.reqPending = false
		c.failedReqs++
	}
}

// RequestPending reports whether a request is outstanding and unsettled, for
// the same kind of driver; it leaves an overdue one to RequestFailed.
func (c *Core) RequestPending() bool { return c.reqPending }

// PlanRecovery presumes some reported-nowhere work was lost and selects
// uncompleted regions to re-create by complementing the local table
// (§5.3.2 failure recovery). It returns nil when recovery is disabled or
// the table is already complete (Next will then detect termination). The
// driver charges the complement scan as contraction time, then calls Adopt —
// the split lets the simulator make the scan a busy period during which
// messages may still complete some of the planned codes.
//
// The plan is a uniform draw without replacement over the whole complement,
// an eighth of it and at least min(4, 1+N/4) regions: recoverers whose tables
// agree see the same N regions, and nothing coordinates them (the paper's
// "lack of coordination" redundancy), so what keeps them apart is that each
// draws its own small share of everything missing — a share of the first few
// regions in walk order is the same corner for all of them. The size follows
// N so that a lone survivor's complement shrinks by a fixed fraction per quiet
// window, not by a fixed count. Every outstanding region has positive
// probability in every plan, and a plan holds only codes the local table lacks,
// so the policy is as safe and as live as adopting all of them (DESIGN.md
// "Failure recovery").
func (c *Core) PlanRecovery() []code.Code {
	if c.terminated {
		return nil
	}
	// Stay at the suspicion threshold: while the remote-evidence gate stays
	// stale the node recovers again immediately on its next starvation;
	// fresh evidence (a report, a grant, a relayed activity age) pushes it
	// back into the probing path. Only an actual work grant resets the
	// counter — this is the paper's "how soon failure is suspected" knob.
	c.failedReqs = c.cfg.RecoveryPatience
	n := c.table.Gaps()
	plan := c.table.SampleComplement(max(min(4, 1+n/4), n/8), c.d.Rand)
	if len(plan) > 0 {
		c.cnt.RecoveryPlans++
	}
	return plan
}

// Adopt pushes the planned recovery codes that are still unknown to the table
// and resolvable, returning how many were re-created. A code is refused when
// the table knows any completion at, above or below it (Table.Overlaps): a
// table push merged between PlanRecovery and Adopt can complete part of a
// planned region, and pooling the region whole would redo the path down to
// that part; the next plan draws the finer gaps that remain. Codes dominated
// by the incumbent are eliminated at adoption — completed, not pooled —
// exactly as OnExpanded eliminates dominated children at generation;
// re-created work that cannot matter must not sit in the pool delaying
// termination. Codes already pooled — a grant that arrived between
// PlanRecovery and Adopt can hold the very region the plan complements — are
// skipped, never doubled.
func (c *Core) Adopt(cands []code.Code) int {
	got := 0
	pooled := c.poolSet()
	for _, cd := range cands {
		it, ok := c.d.Expander.Locate(cd)
		if !ok || c.table.Overlaps(cd) {
			continue
		}
		if dup, err := pooled.Add(cd); dup || err != nil {
			continue
		}
		if c.cfg.Prune && it.Bound >= c.incumbent {
			c.complete(cd) // a repeat of cd now stops at Overlaps
			continue
		}
		c.pool.push(it)
		got++
	}
	c.cnt.Recoveries += got
	c.notePool()
	return got
}

// --- message handling ---------------------------------------------------------

// Effect summarizes what a delivered message did to the outstanding work
// request, for a driver keeping its own request timer and pace (WakeAt).
type Effect struct {
	// Answered: an outstanding work request was resolved (grant or deny).
	Answered bool
	// Failed: the resolution counts as a failed attempt (a deny, or a grant
	// carrying nothing usable).
	Failed bool
}

// HandleMessage processes one delivered canonical message. The driver is
// responsible for queueing (the paper's processes check pending messages
// only after finishing the current subproblem) and for charging the modeled
// handling costs.
func (c *Core) HandleMessage(from NodeID, m Msg) Effect {
	var eff Effect
	switch t := m.(type) {
	case Report:
		c.observeIncumbent(t.Incumbent)
		c.noteActivity(t.ActAge)
		c.merge(t.set())
	case TableMsg:
		c.observeIncumbent(t.Incumbent)
		c.noteActivity(t.ActAge)
		c.mergeTable(nil, t.set().trie())
	case WorkRequest:
		c.observeIncumbent(t.Incumbent)
		c.noteActivity(t.ActAge)
		c.handleWorkRequest(from)
	case WorkGrant:
		c.observeIncumbent(t.Incumbent)
		c.noteActivity(t.ActAge)
		eff = c.handleGrant(t)
	case WorkDeny:
		c.observeIncumbent(t.Incumbent)
		c.noteActivity(t.ActAge)
		if c.expire(); c.reqPending {
			c.fail(c.d.Clock.Now())
			eff = Effect{Answered: true, Failed: true}
		}
	case DigestReport:
		c.observeIncumbent(t.Incumbent)
		c.noteActivity(t.ActAge)
		c.merge(t.set())
		c.maybeSync(from, t.Digest)
	case SubtreeRequest:
		c.observeIncumbent(t.Incumbent)
		c.noteActivity(t.ActAge)
		c.answerSubtree(from, t)
	case SubtreeReply:
		c.observeIncumbent(t.Incumbent)
		c.noteActivity(t.ActAge)
		c.absorbSubtree(from, t)
	case Ping:
		// A heartbeat carries only the piggybacked scalars; its real payload
		// is the envelope's arrival, which the failure detector observes
		// before routing here.
		c.observeIncumbent(t.Incumbent)
		c.noteActivity(t.ActAge)
	}
	return eff
}

// --- anti-entropy sync (DiffGossip) -------------------------------------------

// maybeSync starts a digest walk against peer when a received table digest
// proves the tables differ. Only a starving core walks: while the pool is
// non-empty the table converges through the in-flight deltas on its own, and
// walking would re-pull mere convergence lag — the request storm that would
// trade the report savings straight back. A starving core is exactly where
// the legacy protocol spends its full-table pushes and where completeness
// matters (termination detection, complement recovery) — and a crash-restart
// rejoin starves until work arrives, so its first divergent digest still
// triggers the full-root bootstrap pull. Walks are additionally rate-limited
// by syncInterval, and the pull is one-directional (this core requests what
// peer has); the symmetric repair happens when its own digest reaches peer.
func (c *Core) maybeSync(peer NodeID, digest uint64) {
	if c.terminated || c.pool.Len() > 0 || digest == c.table.Digest() {
		return
	}
	now := c.d.Clock.Now()
	if c.syncHot {
		// Committed aggregator: keep pulling, one walk in flight at a time.
		// A reply can be lost, so a walk whose budget never drains is
		// abandoned after a full syncInterval rather than wedging the
		// aggregation forever.
		if c.syncOut > 0 && now-c.lastSync < syncInterval {
			return
		}
	} else {
		if c.table.Len() > 0 {
			// Quiet gate: while completions are still flowing — own
			// expansions or novel gossiped codes — a digest mismatch is
			// convergence lag that the deltas and the merge-forward relay
			// repair on their own, and at that stage tables are fat with
			// transient fine-grained frontier a walk would pointlessly haul.
			// Only once the delta stream has been silent for a (jittered)
			// quiet window is remaining divergence real damage worth a pull.
			// An empty table skips the gate: a crash-restart rejoin must
			// bootstrap immediately, while reports are still flowing past it.
			quiet := syncInterval
			if c.d.RandFloat != nil {
				quiet *= 1 + syncQuietJitter*c.d.RandFloat()
			}
			// Never out-wait the recovery watchdog: were the gate to hold
			// walks past RecoveryQuiet, a starving system would misread its
			// own convergence lag as crashed peers and re-expand "lost"
			// regions — far costlier than any walk. Half the window leaves
			// the walk time to converge before the watchdog fires.
			if lim := c.cfg.RecoveryQuiet / 2; quiet > lim {
				quiet = lim
			}
			if now-c.lastDelta < quiet {
				return
			}
		}
		if now-c.lastSync < syncInterval {
			return
		}
		c.syncHot = true
	}
	c.lastSync = now
	c.syncOut = 0
	c.requestSubtree(peer, code.Root())
}

// Bootstrap pulls peer's completion table, starting a digest walk at the
// root. A brand-new joiner has an empty table, so the walk degenerates to the
// single Full-root SubtreeRequest/SubtreeReply transfer of the crash-restart
// rejoin path — the whole contracted frontier in one reply. Drivers call it
// when a process joins mid-run; the core itself asks again every
// RequestTimeout (Tick) until the table holds its first code, since the
// request or its reply can be lost. It works in legacy gossip mode too —
// subtree request/reply handling is unconditional on DiffGossip.
func (c *Core) Bootstrap(peer NodeID) {
	if c.terminated {
		return
	}
	c.lastSync, c.syncOut = c.d.Clock.Now(), 0
	c.bootPeer, c.bootAt = peer, c.lastSync+c.cfg.RequestTimeout
	c.requestSubtree(peer, code.Root())
}

// NoteRemoteActivity records out-of-band evidence that some remote process
// was computing age seconds ago. Drivers call it when a process joins an
// already-running system: a fresh core with an empty view and an empty table
// must not mistake its own ignorance for global quiescence and recover the
// root (§5.3.2) before the join handshake has even completed.
func (c *Core) NoteRemoteActivity(age float64) { c.noteActivity(age) }

// requestSubtree asks peer for the content under prefix, under the walk's
// total request budget. Full is set when this core knows nothing under prefix —
// the responder then ships the whole subtree frontier (the restart-rejoin
// bootstrap payload) instead of another level of digests.
func (c *Core) requestSubtree(peer NodeID, prefix code.Code) {
	if c.syncOut >= maxSyncRequests {
		return
	}
	c.syncOut++
	_, known, _ := c.table.DigestAt(prefix)
	c.d.Sender.Send(peer, SubtreeRequest{
		Prefix: prefix, Full: !known,
		Incumbent: c.incumbent, ActAge: c.ActivityAge(),
	})
}

// answerSubtree serves one walk step: ship the subtree when it is small (or
// the requester asked for everything), otherwise describe the children
// digests so the requester can descend only where they differ. A prefix this
// core knows nothing under yields an empty leaf reply, which ends that branch
// of the walk. The handler is stateless and idempotent, so duplicated or
// replayed requests are harmless.
func (c *Core) answerSubtree(from NodeID, req SubtreeRequest) {
	max := syncLeafMax
	if req.Full {
		max = 0 // bootstrap: ship the whole subtree
	}
	if sub, ok := c.table.Subtree(req.Prefix, max); ok {
		c.d.Sender.Send(from, SubtreeReply{Prefix: req.Prefix, Leaf: true, table: sub, Incumbent: c.incumbent, ActAge: c.ActivityAge()})
		return
	}
	bv, kids, ok := c.table.Children(req.Prefix)
	if !ok {
		// Subtree refuses only on size, so a walkable vertex exists;
		// kept as a defensive empty reply for a racing contraction.
		c.d.Sender.Send(from, SubtreeReply{Prefix: req.Prefix, Leaf: true, Incumbent: c.incumbent, ActAge: c.ActivityAge()})
		return
	}
	c.d.Sender.Send(from, SubtreeReply{Prefix: req.Prefix, BranchVar: bv, Kids: kids, Incumbent: c.incumbent, ActAge: c.ActivityAge()})
}

// absorbSubtree consumes one walk step's answer: leaf replies merge the
// pulled subtree below its prefix; branch replies descend into children whose
// digests differ from this core's own. Descent depth strictly increases and
// the total request budget bounds fan-out, so the walk always terminates —
// and because every pulled subtree passes through the same merge as any
// report, a stale or replayed reply can only re-merge what is already
// subsumed.
func (c *Core) absorbSubtree(from NodeID, rep SubtreeReply) {
	if c.syncOut > 0 {
		c.syncOut--
	}
	if c.terminated {
		return
	}
	if rep.Leaf {
		c.mergeTable(rep.Prefix, rep.trie())
		return
	}
	for b := 0; b < 2; b++ {
		k := rep.Kids[b]
		if !k.Present {
			continue // the peer has nothing there either
		}
		child := rep.Prefix.Child(rep.BranchVar, uint8(b))
		mine, known, complete := c.table.DigestAt(child)
		if complete || (known && mine == k.Digest) {
			continue // nothing to learn below this child
		}
		c.requestSubtree(from, child)
	}
}

// merge stores a received report in the table and contracts it. Novel
// information counts as remote progress for the recovery quiet window.
// Outside diff mode it is mergeTable, on the report's trie.
//
// In diff mode novel codes are also relayed: they enter the outbox and ride
// the next delta report, so a completion spreads epidemically in O(log n)
// gossip hops instead of waiting for a full-table exchange. Legacy gossip
// cannot afford relaying — without digests a re-delivered code looks novel
// forever and the frontier would echo around the ring — but the contracted
// table makes the novelty check exact: a code relays at most once per core,
// in whatever contracted form it had when it arrived. This is what lets the
// anti-entropy walk stay the rare repair path — convergence no longer
// depends on it.
func (c *Core) merge(s codeSet) {
	if c.cfg.DiffGossip {
		c.relayMerge(s.frontier())
		return
	}
	c.mergeTable(nil, s.trie())
}

// mergeTable merges a received trie — a report's or a pushed table's, a
// snapshot or its decoded copy, or a leaf subtree reply's, below prefix —
// into the table. If the merge closed the table, the message decides what
// this core is in §5.4's terms: one that carried the root code merely told it
// the computation is over (learned); one that carried the last missing piece
// let it contract to the root from partial information, which is detection. A
// trie carries the root code exactly when it is complete and sits at the root.
func (c *Core) mergeTable(prefix code.Code, s *ctree.Table) {
	open := !c.table.Complete()
	changed, _ := c.table.MergeAt(prefix, s)
	if open && c.table.Complete() {
		c.learned = prefix.IsRoot() && s.Complete()
	}
	c.noteChanged(changed)
}

// noteChanged ends a merge: novel codes are remote progress, and the driver
// hears that the table may have changed.
func (c *Core) noteChanged(changed int) {
	if changed > 0 {
		c.lastProgress = c.d.Clock.Now()
	}
	if c.d.OnTableChange != nil {
		c.d.OnTableChange()
	}
}

// relayMerge is merge for diff mode: per-code insertion so a code that
// CONTRACTS on arrival — this core held the sibling, so insertion merged up
// to a strictly shallower covering ancestor — relays onward: the covering
// code re-enters the outbox and rides the next delta report. Merge-forward
// gossip coarsens as it spreads: every forwarded code is shallower than the
// one received, subsumes (and evicts from the outbox) finer relays still
// pending, and deduplicates at each hop through the novelty check, while
// non-contracting codes spread no further than the completer's own fanout —
// pushing every fine completion to every member costs Ω(members × frontier),
// the very term diff gossip removes. Flush pacing is the same batch
// threshold complete() uses; relayed codes do not count as reported
// completions (outboxAdds), they are transit traffic.
func (c *Core) relayMerge(cs []code.Code) {
	open := !c.table.Complete()
	changed := 0
	for _, cd := range cs {
		if ins, err := c.table.Insert(cd); err != nil || !ins {
			continue
		}
		changed++
		if cov, ok := c.table.Covering(cd); ok && len(cov) < len(cd) {
			c.outbox.Insert(cov)
		}
	}
	if open && c.table.Complete() {
		c.learned = slices.ContainsFunc(cs, code.Code.IsRoot) // as mergeTable decides
	}
	if changed > 0 {
		now := c.d.Clock.Now()
		c.lastProgress = now
		c.lastDelta = now
		// The delta stream is alive again: stand down from aggregation and
		// let convergence ride the deltas.
		c.syncHot = false
	}
	if c.d.OnTableChange != nil {
		c.d.OnTableChange()
	}
	if !c.terminated && c.outbox.Len() >= c.cfg.ReportBatch {
		c.FlushReport()
	}
}

// poolSet rebuilds the pooled-code set from the current pool contents. It is
// called only on the rare paths that may re-introduce a code this process
// already holds (work grants, recovery adoption); the set keeps its arena
// across calls, so once it has grown to the pool's size a rebuild allocates
// nothing. Every pooled code was generated or located by the expander, so
// none is refused for branching on another variable than the set holds.
func (c *Core) poolSet() *ctree.Set {
	if c.pooled == nil {
		c.pooled = new(ctree.Set)
	}
	c.pooled.Reset()
	for i := range c.pool.items {
		c.pooled.Add(c.pool.items[i].Code)
	}
	return c.pooled
}

// handleWorkRequest grants half the pool (up to maxShare) if the process has
// enough problems, else denies. A terminated process answers with the root
// report so the requester can terminate too.
func (c *Core) handleWorkRequest(from NodeID) {
	if c.terminated {
		c.d.Sender.Send(from, RootReport(c.incumbent, c.ActivityAge()))
		return
	}
	k := min(c.pool.Len()/2, maxShare)
	if c.pool.Len() < c.cfg.MinPoolToShare || k == 0 {
		// k == 0 covers MinPoolToShare == 1 with a single pooled problem:
		// halving a singleton pool grants nothing, and an empty WorkGrant
		// would count as a failed attempt at the requester where an honest
		// WorkDeny resolves the probe immediately.
		c.d.Sender.Send(from, WorkDeny{Incumbent: c.incumbent, ActAge: c.ActivityAge()})
		return
	}
	codes := make([]code.Code, 0, k)
	for i := 0; i < k; i++ {
		codes = append(codes, c.pool.steal().Code)
	}
	c.d.Sender.Send(from, WorkGrant{Codes: codes, Incumbent: c.incumbent, ActAge: c.ActivityAge()})
	c.cnt.WorkSent += len(codes)
}

// handleGrant adopts transferred problems. Codes dominated by the incumbent
// (the grant may have been cut before the granter learned of it) are
// eliminated on arrival the same way OnExpanded eliminates dominated
// children: completed and reported, never pooled. Codes already sitting in
// the pool — a duplicated grant, or a delayed grant whose region complement
// recovery re-created meanwhile — are dropped: at-least-once delivery must
// not double-pool a code, or the subtree is expanded twice locally. An
// all-eliminated grant still counts as progress — the completions it
// produced will gossip.
func (c *Core) handleGrant(g WorkGrant) Effect {
	var eff Effect
	if c.expire(); c.reqPending {
		c.reqPending = false
		eff.Answered = true
	}
	got := 0
	pooled := c.poolSet()
	for _, cd := range g.Codes {
		it, ok := c.d.Expander.Locate(cd)
		if !ok || c.table.Contains(cd) {
			continue
		}
		if dup, err := pooled.Add(cd); dup || err != nil {
			continue
		}
		if c.cfg.Prune && it.Bound >= c.incumbent {
			c.complete(cd) // a repeat of cd now stops at Contains
			got++
			continue
		}
		c.pool.push(it)
		got++
	}
	c.notePool()
	if got > 0 {
		c.failedReqs = 0
		c.lastProgress = c.d.Clock.Now()
	} else if eff.Answered {
		// Only an answer to this process's own outstanding request counts as
		// a failed attempt. An unsolicited all-useless grant — stale, or a
		// replayed duplicate of one already absorbed — must not pace a retry
		// the process never issued, nor push it toward presuming failure.
		c.fail(c.d.Clock.Now())
		eff.Failed = true
	}
	return eff
}

// --- termination ---------------------------------------------------------------

// terminate fires when contraction reached the root code (§5.4). A core that
// got there from partial information detected termination: it broadcasts one
// final root report to every member it knows of, then stops. A core that was
// told — the completing message carried the root code — forwards the root
// report like any other report, to ReportFanout random members, and stops:
// were every learner to broadcast as well, n processes would send n² messages
// to end a run. The detector's broadcast alone reaches everyone in one
// latency; the forwards make the news epidemic when that broadcast is cut
// short (loss, a detector that dies mid-send); and a process neither reaches
// is starving, so it probes on the retry pace and the first
// terminated process it asks answers with the root report
// (handleWorkRequest). If every informed process dies, the survivors finish
// by complement recovery and one of them detects afresh.
func (c *Core) terminate() {
	c.terminated = true
	c.reqPending, c.paceUntil = false, 0 // a finished core wants no wake-up
	peers := c.d.Peers()
	if len(peers) == 0 {
		return
	}
	// Box the report into the Msg interface once: re-boxing per peer is one
	// heap allocation per recipient of the broadcast.
	var m Msg = RootReport(c.incumbent, c.ActivityAge())
	if c.learned {
		for i := 0; i < c.cfg.ReportFanout; i++ {
			c.d.Sender.Send(peers[c.d.Rand(len(peers))], m)
		}
		return
	}
	if bs, ok := c.d.Sender.(BroadcastSender); ok {
		bs.Broadcast(peers, m)
		return
	}
	for _, p := range peers {
		c.d.Sender.Send(p, m)
	}
}
