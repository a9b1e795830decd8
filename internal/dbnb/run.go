package dbnb

import (
	"encoding/binary"
	"math"
	"sort"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/btree"
	"gossipbnb/internal/code"
	"gossipbnb/internal/ctree"
	"gossipbnb/internal/instance"
	"gossipbnb/internal/member"
	"gossipbnb/internal/metrics"
	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/protocol"
	"gossipbnb/internal/sim"
	"gossipbnb/internal/trace"
)

// Result summarizes a simulated run.
type Result struct {
	// Terminated reports whether every non-crashed process detected
	// termination before MaxTime.
	Terminated bool
	// Time is the virtual time at which the last live process detected
	// termination — the paper's "execution time".
	Time float64
	// FirstDetect is when the first process detected termination.
	FirstDetect float64
	// Optimum is the best solution value known to the terminated processes;
	// OptimumOK compares it against the tree's true optimum.
	Optimum   float64
	OptimumOK bool
	// Expanded counts node expansions summed over processes; Unique is the
	// number of distinct tree nodes expanded; Redundant = Expanded − Unique
	// is the paper's redundant work.
	Expanded  int
	Unique    int
	Redundant int
	// DetectTimes holds each process's termination-detection time, indexed
	// by identity — initial processes first, then joiners in join order
	// (NaN = crashed or never entered, +Inf = entered but never detected).
	DetectTimes []float64
	// Joined counts the scheduled joiners that actually entered before the
	// run ended.
	Joined int
	// Completions counts completion events summed over processes.
	Completions int
	// Events is the total simulator events fired — the denominator of the
	// events/sec throughput the CLI reports.
	Events uint64
	// Shards is how many event shards actually ran: at least 1, and exactly 1
	// for the features that clamp (see Config.Shards).
	Shards int
	// Met carries the per-process breakdowns, counters and storage peaks.
	Met *metrics.System
	// Net carries the network counters.
	Net sim.NetStats
}

// workload is what a simulated run solves: either a recorded basic tree
// (Run) or a code-driven problem expanded from initial data (RunProblem,
// RunInstances). The harness never looks past this struct, so the modes share
// every line of driver code.
type workload struct {
	// newExpander builds one expander per context — processes re-derive
	// subproblems independently, exactly as the paper's model prescribes.
	newExpander func() protocol.Expander
	// costOf is the modeled CPU seconds charged for expanding it, before
	// the CostFactor granularity knob.
	costOf func(it protocol.Item) float64
	// trueOpt is the single-processor reference optimum, found in
	// seqExpanded expansions (a recorded tree's size).
	trueOpt     float64
	seqExpanded int
}

// spec is one problem instance's static description inside the harness. A
// single-problem run is the one-instance case: the untagged instance 0,
// submitted at time 0 with its root at process 0.
type spec struct {
	id       protocol.InstanceID // wire id: 0 untagged, 1..k in Instances order
	idx      int                 // 0-based slot: Instances index, metrics index
	start    float64             // submission time
	seed     int64               // Instance.Seed, folded into tagged contexts' streams
	seedNode int                 // the process whose core is seeded with the root
	w        workload
	met      *metrics.System // per-process breakdowns and counters of this instance
}

// rec is one shard's detection/expansion record of one instance.
type rec struct {
	expanded ctree.Set    // subproblems expanded at least once (shard-local)
	union    *ctree.Table // completions observed by this shard's contexts
	// uniquePeak is the union's peak wire size — the "one shared copy" storage
	// baseline. Kept here, not in the shared metrics sink, so a shard touches
	// only its own record mid-run; fold reports the largest (see
	// metrics.System.UniquePeak for what that is on several shards).
	uniquePeak int
	// completions counts complete() events across contexts (a subproblem
	// completed by k processes counts k times).
	completions int
	detected    int
	firstDet    float64
	lastDet     float64
}

// noteTermination records one context's detection.
func (r *rec) noteTermination(now float64) {
	r.detected++
	if r.detected == 1 || now < r.firstDet {
		r.firstDet = now
	}
	if now > r.lastDet {
		r.lastDet = now
	}
}

// shardCtx is one shard's slice of the harness: the kernel and network the
// shard's processes live on, plus every piece of bookkeeping the driver
// mutates during the run. Nothing here is shared — a node only ever touches
// its owner shard's context, from its owner shard's worker goroutine, which
// is what keeps the parallel run free of driver-level races.
type shardCtx struct {
	k    *sim.Kernel
	nw   *sim.Network
	recs []rec // per instance slot
}

// harness owns one simulated run: the substrate, every execution context,
// and the per-instance books.
type harness struct {
	cfg    Config
	specs  []*spec
	mesh   *sim.Mesh
	shards []*shardCtx
	// joins is the validated, time-sorted elastic-membership schedule;
	// total is Procs plus every scheduled joiner.
	joins []Join
	total int
	// ring is the doubled process-id ring: node i's static peer view is
	// ring[i+1 : i+procs] — every process but i, one shared backing array
	// for all contexts instead of O(procs²) per-node cached views. It exists
	// only when a context's view IS the static ring and every link has the
	// base latency — no join schedule, no §5.2 membership, no LinkLatency —
	// because the ring-range broadcast it enables delivers to the whole
	// window on the base model. Without it views are epoch-built per node
	// (or gossiped) and a broadcast is a loop of sends.
	ring []protocol.NodeID
	// nodes holds every execution context, process-major: process i's are
	// nodes[i·k : (i+1)·k] for k instances, in slot order. A scheduled
	// joiner's entry stays nil until it enters.
	nodes []*node
	// muxes routes each process's inbound traffic by instance in
	// multi-instance runs; nil in single-problem ones, whose processes
	// register their one context's deliver directly.
	muxes   []*instance.Mux
	members []*member.Member
	// ghost, if non-nil, is shown every expansion noteExpansion books, before
	// it is booked. Test-only (redundancy_test.go sets it on a harness it
	// builds itself, one shard): the ledger that says why an expansion was
	// redundant needs the moment it happened, not the end-of-run totals.
	ghost func(n *node, c code.Code)
	// fireFn is fire bound once: the callback of every node event of the
	// run (node.event).
	fireFn func(int)
}

// shardOf returns the context owning process i.
func (h *harness) shardOf(i int) *shardCtx {
	return h.shards[h.mesh.ShardOf(sim.NodeID(i))]
}

// contexts returns process i's execution contexts, one per instance slot.
func (h *harness) contexts(i int) []*node {
	k := len(h.specs)
	return h.nodes[i*k : (i+1)*k]
}

// view returns the members a process may contact under the membership
// protocol (§5.2).
func (h *harness) view(self sim.NodeID) []sim.NodeID {
	return h.members[self].Peers()
}

// memberCountAt is the predetermined-pool membership function: how many
// processes exist at virtual time t under the join schedule. Every process
// derives its peer view from this pure function of its own clock, so views
// converge within one lookahead window without any message exchange — the
// deterministic analogue of §5.2 absorption — and sharded runs stay
// invariant in the shard count.
func (h *harness) memberCountAt(t float64) int {
	m := h.cfg.Procs
	for _, j := range h.joins {
		if j.Time > t {
			break
		}
		m += j.Count
	}
	return m
}

// handler returns process id's network handler. A single-instance process
// gets its context's own deliver, with nothing between the network and that
// method's first branch: every delivery of a run goes through it.
// Under §5.2 membership its traffic is peeled off first; the member is
// looked up per delivery, not captured: a restart replaces it with a
// brand-new one rejoining the group. Only a multi-instance process pays for
// the demultiplexer.
func (h *harness) handler(id sim.NodeID) sim.Handler {
	if h.muxes != nil {
		return h.demux(id)
	}
	n := h.nodes[id]
	if !h.cfg.UseMembership {
		return n.deliver
	}
	return func(from sim.NodeID, msg sim.Message) {
		if member.IsProtocolMessage(msg) {
			h.members[id].Deliver(from, msg)
			return
		}
		n.deliver(from, msg)
	}
}

// demux is a multi-instance process's handler: route by instance, deliver to
// the owning context, and answer straggler work requests for reaped
// instances from the tombstone — a root report carrying the final incumbent,
// which terminates the requester's instance too.
func (h *harness) demux(id sim.NodeID) sim.Handler {
	mux, nw := h.muxes[id], h.shardOf(int(id)).nw
	return func(from sim.NodeID, msg sim.Message) {
		im, ok := msg.(protocol.InstMsg)
		if !ok {
			return
		}
		switch e, v := mux.Route(im.Instance); v {
		case instance.RouteOpen:
			e.Data.(*node).deliver(from, im.Msg)
		case instance.RouteReaped:
			if _, isReq := im.Msg.(protocol.WorkRequest); isReq {
				inc, _ := mux.Reaped(im.Instance)
				nw.Send(id, from, protocol.InstMsg{Instance: im.Instance,
					Msg: protocol.RootReport(inc, 0)})
			}
		}
	}
}

// addMember starts process id's §5.2 membership agent on the one shard a
// membership run has; the caller joins it once the process's handler is
// registered.
func (h *harness) addMember(id sim.NodeID) {
	sh := h.shards[0]
	h.members[id] = member.New(sh.k, sh.nw, id, []sim.NodeID{0}, member.DefaultConfig())
}

// spawnJoiner brings one scheduled joiner up mid-run: a brand-new process
// under a fresh identity, registered on its owner shard's network, announced
// to the group (§5.2 when membership runs), its periodic chains staggered
// like a boot, and its first bootstrap pull sent — the core retries it until
// the table holds a code. The fresh core is seeded with zero-age activity
// evidence — a process launched into a running system must not read its own
// empty table and view as global quiescence and recover the root before the
// handshake completes (and before the bootstrap pull, which reports the
// core's activity age — hence not node.activate after it). Joins are
// single-instance only, so the joiner's one context is nodes[id].
func (h *harness) spawnJoiner(id int) {
	nid := sim.NodeID(id)
	n := newNode(nid, h, h.specs[0])
	h.nodes[id] = n
	if h.cfg.UseMembership {
		h.addMember(nid)
	}
	n.sh.nw.Register(nid, h.handler(nid))
	if h.cfg.UseMembership {
		h.members[id].Join()
	}
	n.started = true
	n.core.NoteRemoteActivity(0)
	n.core.Stagger(n.k.Now())
	// Pull from a random member, or — a §5.2 view not absorbed yet — from the
	// gossip server, the one address a joiner knows; its reply also carries
	// activity evidence against misreading gossip lag as quiescence.
	boot := protocol.NodeID(0)
	if peers := n.peerView(); len(peers) > 0 {
		boot = peers[n.rng.Intn(len(peers))]
	}
	n.core.Bootstrap(boot)
	n.arm()
	n.loop()
}

// rejoinMember replaces a restarted process's membership agent with a fresh
// one that rejoins through the gossip servers (§5.2): the old view died with
// the old incarnation, and peers that timed the process out re-admit it on
// its new join announcement.
func (h *harness) rejoinMember(id sim.NodeID) {
	// Retire the dead incarnation's agent explicitly: its gossip round may
	// not have ticked inside the crash window, and an undead agent would
	// keep gossiping its stale view under the same identity.
	h.members[id].Leave()
	h.addMember(id)
	h.members[id].Join()
}

// Run simulates the algorithm of §5 replaying the given basic tree and
// returns the measured result. Runs are deterministic in (tree, cfg).
func Run(tree *btree.Tree, cfg Config) Result {
	return runOne(cfg, treeWorkload(tree))
}

// treeWorkload is the replay workload of Run: one read-only expander over the
// recorded tree, every node charged its recorded cost.
func treeWorkload(tree *btree.Tree) workload {
	exp := btree.Expander{Tree: tree}
	return workload{
		newExpander: func() protocol.Expander { return exp },
		costOf:      func(it protocol.Item) float64 { return tree.Nodes[it.Ref].Cost },
		trueOpt:     tree.Stats().Optimum,
		seqExpanded: tree.Size(),
	}
}

// RunProblem simulates the algorithm of §5 solving a code-driven problem
// from its initial data only — no recorded tree anywhere. Every process
// re-derives subproblems through its own bnb expander; expansion charges
// the modeled nodeCost (jittered deterministically per code). The
// single-processor reference optimum is established first by the
// sequential engine, so Result.OptimumOK is a real cross-check. Runs are
// deterministic in (problem, cfg).
func RunProblem(p bnb.Problem, cfg Config) Result {
	return RunProblemRef(p, bnb.SolveProblem(p), cfg)
}

// RunProblemRef is RunProblem with a precomputed sequential reference,
// sparing callers that already solved the instance a second solve.
func RunProblemRef(p bnb.Problem, ref bnb.Result, cfg Config) Result {
	return runOne(cfg, problemWorkload(p, ref))
}

// problemWorkload is the code-driven workload of RunProblem and RunInstances:
// a fresh bnb expander per context, nodeCost jittered per code.
func problemWorkload(p bnb.Problem, ref bnb.Result) workload {
	return workload{
		newExpander: func() protocol.Expander { return bnb.NewExpander(p) },
		costOf:      func(it protocol.Item) float64 { return nodeCost * costJitter(it.Code) },
		trueOpt:     ref.Value,
		seqExpanded: ref.Expanded,
	}
}

// runOne runs the single-problem case: one untagged instance (wire id 0,
// submitted at time 0, root at process 0), its InstanceResult flattened into
// a Result.
func runOne(cfg Config, w workload) Result {
	h := newHarness(cfg, []*spec{{w: w}}, false)
	mr := h.run()
	ir := mr.Instances[0]
	return Result{
		Terminated:  ir.Terminated,
		Time:        ir.Time,
		FirstDetect: ir.FirstDetect,
		Optimum:     ir.Optimum,
		OptimumOK:   ir.OptimumOK,
		Expanded:    ir.Expanded,
		Unique:      ir.Unique,
		Redundant:   ir.Redundant,
		DetectTimes: ir.DetectTimes,
		Joined:      h.joined(),
		Completions: ir.Completions,
		Events:      mr.Events,
		Shards:      mr.Shards,
		Met:         mr.Met.At(0),
		Net:         mr.Net,
	}
}

// costJitter maps a code to a deterministic factor in [0.5, 1.5), giving
// code-driven runs irregular per-node costs without a randomness source
// that would break (problem, seed, config) determinism. It streams FNV-1a
// over the code's wire encoding without materializing it — this runs once
// per expansion, and the c.Key() allocation it replaces was a measurable
// slice of the code-driven hot path. The byte stream (and therefore every
// simulated cost) is identical to hashing c.Key().
func costJitter(c code.Code) float64 {
	const (
		fnvOffset = 2166136261
		fnvPrime  = 16777619
	)
	var buf [binary.MaxVarintLen64]byte
	h := uint32(fnvOffset)
	n := binary.PutUvarint(buf[:], uint64(len(c)))
	for _, b := range buf[:n] {
		h = (h ^ uint32(b)) * fnvPrime
	}
	for _, d := range c {
		n = binary.PutUvarint(buf[:], uint64(d.Var)<<1|uint64(d.Branch))
		for _, b := range buf[:n] {
			h = (h ^ uint32(b)) * fnvPrime
		}
	}
	return 0.5 + float64(h%1024)/1024
}

// shardLookahead computes the static safe lookahead of a config: the
// minimum virtual delay any cross-shard message can have. The latency
// model is monotone in size, so its zero-byte value lower-bounds every
// send, and slow links and reordering only add to it; a replay copy can
// surface after only its fault's delay (1 s when it names none).
func shardLookahead(cfg Config) float64 {
	la := cfg.Latency(0)
	for _, f := range cfg.Nemesis.Faults() {
		if f.Kind == nemesis.Replay && f.Prob > 0 {
			rd := 1.0
			if f.Delay > 0 {
				rd = f.Delay.Seconds()
			}
			la = min(la, rd)
		}
	}
	return la
}

// shardCount resolves how many shards a run actually uses: Shards clamped to
// [1, Procs], and one for the features whose state cannot be partitioned —
// membership, tracing, the test hooks, per-link latency, a latency model with
// no positive floor.
func shardCount(cfg Config) int {
	if cfg.UseMembership || cfg.Trace != nil || cfg.fireHook != nil ||
		cfg.LinkLatency != nil || shardLookahead(cfg) <= 0 {
		return 1
	}
	return min(max(cfg.Shards, 1), cfg.Procs)
}

// normalizeJoins validates and time-sorts the join schedule: joiner
// identities are assigned densely in event-time order, so the sort makes
// memberCountAt monotone and the identity assignment deterministic.
func normalizeJoins(joins []Join) []Join {
	out := make([]Join, 0, len(joins))
	for _, j := range joins {
		if j.Count <= 0 {
			continue
		}
		if j.Time < 0 {
			j.Time = 0
		}
		out = append(out, j)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Time < out[b].Time })
	return out
}

// newHarness builds one run: the substrate, every execution context, and the
// whole schedule of boots, joins and failures. tagged selects the
// multi-instance wiring — InstMsg-wrapped traffic demultiplexed per process,
// instance-derived randomness streams, instance-scoped crashes.
func newHarness(cfg Config, specs []*spec, tagged bool) *harness {
	cfg = cfg.withDefaults()
	h := &harness{cfg: cfg, specs: specs}
	h.fireFn = h.fire
	h.joins = normalizeJoins(cfg.Joins)
	h.total = cfg.Procs
	for _, j := range h.joins {
		h.total += j.Count
	}
	for _, sp := range specs {
		sp.met = metrics.NewSystem(h.total)
	}

	h.mesh = sim.NewMesh(cfg.Seed, shardCount(cfg), cfg.Latency, shardLookahead(cfg))
	h.mesh.PlaceBlocks(h.total)
	h.shards = make([]*shardCtx, h.mesh.Shards())
	for s := range h.shards {
		h.shards[s] = &shardCtx{k: h.mesh.Kernel(s), nw: h.mesh.Net(s)}
	}
	if cfg.fireHook != nil {
		h.shards[0].k.SetFireHook(cfg.fireHook)
	}
	if len(h.joins) == 0 && !cfg.UseMembership && cfg.LinkLatency == nil {
		h.ring = make([]protocol.NodeID, 2*cfg.Procs)
		for i := 0; i < cfg.Procs; i++ {
			h.ring[i] = protocol.NodeID(i)
			h.ring[i+cfg.Procs] = protocol.NodeID(i)
		}
	}

	nem := cfg.schedule()
	for _, sh := range h.shards {
		sh.recs = make([]rec, len(specs))
		for i := range specs {
			sh.recs[i] = rec{union: ctree.New()}
		}
		if cfg.LinkLatency != nil {
			// One shard only (shardCount clamps), so no lookahead bound
			// constrains the per-link delays.
			sh.nw.SetLinkLatency(func(from, to sim.NodeID, bytes int) float64 {
				return cfg.LinkLatency(int(from), int(to), bytes)
			})
		}
		sh.nw.SetNemesis(nem)
	}

	h.nodes = make([]*node, h.total*len(specs))
	if cfg.UseMembership {
		h.members = make([]*member.Member, h.total)
	}
	if tagged {
		h.muxes = make([]*instance.Mux, cfg.Procs)
	}
	for i := 0; i < cfg.Procs; i++ {
		id := sim.NodeID(i)
		if tagged {
			h.muxes[i] = instance.NewMux()
		}
		ctxs := h.contexts(i)
		for _, sp := range specs {
			ctxs[sp.idx] = newNode(id, h, sp)
		}
		if cfg.UseMembership {
			h.addMember(id)
		}
		h.shardOf(i).nw.Register(id, h.handler(id))
		if cfg.UseMembership {
			h.members[i].Join()
		}
	}

	// Elastic membership: scheduled joiners come up mid-run, each on its
	// owner shard's clock, under fresh identities in event-time order.
	nextID := cfg.Procs
	for _, j := range h.joins {
		for c := 0; c < j.Count; c++ {
			id := nextID
			nextID++
			h.shardOf(id).k.At(j.Time, func() { h.spawnJoiner(id) })
		}
	}

	// Every context comes up at its instance's submission time, on its owner
	// shard's clock. (Joiners get the same treatment in spawnJoiner, at join
	// time.)
	for _, n := range h.nodes[:cfg.Procs*len(specs)] {
		n.core.Stagger(n.spec.start)
		n.arm()
		n.k.AtSeqArg(n.spec.start, n.k.Reserve(), h.fireFn, n.event(evActivate))
	}

	// Failure schedule. Instance 0 — and every Crash of a single-problem run
	// — fails the whole process, network endpoint included; Instance k > 0
	// fails only that instance's context, leaving the process's other
	// instances and its endpoint untouched.
	for _, c := range cfg.Crashes {
		inst := c.Instance
		if !tagged {
			inst = 0
		}
		if c.Node < 0 || c.Node >= h.total || inst < 0 || inst > len(specs) {
			continue
		}
		// Failure events live on the failing process's own shard: crash
		// state is owned by the shard's network, like every delivery check.
		// A scheduled joiner's context may not exist yet when its crash fires
		// (the join is later, or never came); the crash then only marks the
		// network, exactly like crashing a process that never booted.
		sh, id, ctxs := h.shardOf(c.Node), sim.NodeID(c.Node), h.contexts(c.Node)
		if inst > 0 {
			ctxs = ctxs[inst-1 : inst]
		}
		sh.k.At(c.Time, func() {
			if inst == 0 {
				sh.nw.Crash(id)
			}
			for _, n := range ctxs {
				if n != nil {
					n.crash()
				}
			}
		})
		if c.Restart > c.Time {
			// Crash-restart: the process reboots under its old identity and
			// rebuilds from gossip. Restore first so the rejoin traffic the
			// restart triggers is not swallowed by its own crashed mark.
			sh.k.At(c.Restart, func() {
				if inst == 0 {
					sh.nw.Restore(id)
				}
				for _, n := range ctxs {
					if n != nil {
						n.restart()
					}
				}
			})
		}
	}
	return h
}

// joined counts the scheduled joiners that actually entered.
func (h *harness) joined() int {
	j := 0
	for _, n := range h.nodes[h.cfg.Procs*len(h.specs):] {
		if n != nil {
			j++
		}
	}
	return j
}

// run executes the schedule to completion (or MaxTime) and folds every
// instance's books.
func (h *harness) run() MultiResult {
	res := MultiResult{
		Terminated: true,
		Instances:  make([]InstanceResult, len(h.specs)),
		Met:        &metrics.Multi{Systems: make([]*metrics.System, len(h.specs))},
	}
	end := h.mesh.Run(h.cfg.MaxTime)
	res.Net = h.mesh.Stats()
	res.Events = h.mesh.Events()
	res.Shards = len(h.shards)
	for i, sp := range h.specs {
		ir := h.fold(sp, end)
		res.Instances[i] = ir
		res.Met.Systems[i] = sp.met
		res.Terminated = res.Terminated && ir.Terminated
		res.Time = max(res.Time, ir.Time)
	}
	return res
}

// fold assembles one instance's result from its contexts and the per-shard
// records.
func (h *harness) fold(sp *spec, end float64) InstanceResult {
	ir := InstanceResult{
		ID:          sp.id,
		Terminated:  true,
		Start:       sp.start,
		Optimum:     math.Inf(1),
		SeqOptimum:  sp.w.trueOpt,
		SeqExpanded: sp.w.seqExpanded,
		DetectTimes: make([]float64, h.total),
	}
	// Detection times, completions, the storage peak and the distinct
	// expansions. Unique is exact at every shard count: the shard-local
	// ledgers are unioned here, after the run.
	first := &h.shards[0].recs[sp.idx]
	detected := 0
	for _, sh := range h.shards {
		r := &sh.recs[sp.idx]
		if r.detected > 0 {
			if detected == 0 || r.firstDet < ir.FirstDetect {
				ir.FirstDetect = r.firstDet
			}
			ir.Time = max(ir.Time, r.lastDet)
			detected += r.detected
		}
		ir.Completions += r.completions
		sp.met.ObserveUnique(r.uniquePeak)
		if r != first {
			first.expanded.Union(&r.expanded)
		}
	}
	ir.Unique = first.expanded.Len()
	// Leftover staggered timer events can outlive the computation; clamp the
	// trace window to when the run actually finished.
	traceEnd := end
	if detected > 0 && ir.Time < traceEnd {
		traceEnd = ir.Time
	}

	for i := range ir.DetectTimes {
		n := h.contexts(i)[sp.idx]
		if n == nil {
			// A scheduled joiner that never entered (its join time lay beyond
			// the run): it never participated, so like a crashed process it
			// neither counts toward nor blocks termination.
			ir.DetectTimes[i] = math.NaN()
			continue
		}
		// Fold the core's protocol-event tallies into the metrics. The
		// driver accounts only what the substrate defines (time splits,
		// storage peaks, expansions it paid for); event counts are the
		// core's, so a termination broadcast is not a "work report" in the
		// experiment tables. Dead crash-restart incarnations folded their
		// tallies into cntPrior — messages they sent were really sent.
		cnt := n.counters()
		n.met.ReportsSent = cnt.ReportsSent
		n.met.ReportCodes = cnt.ReportCodes
		n.met.ReportedComps = cnt.ReportedComps
		n.met.TablesSent = cnt.TablesSent
		n.met.WorkRequests = cnt.WorkRequests
		n.met.WorkSent = cnt.WorkSent
		n.met.RecoveryPlans = cnt.RecoveryPlans
		n.met.Recoveries = cnt.Recoveries
		n.met.PeakPool = cnt.PeakPool
		switch {
		case n.crashed:
			ir.DetectTimes[i] = math.NaN()
			h.cfg.Trace.Add(i, trace.Dead, n.crashedAt, traceEnd)
		case n.done:
			ir.DetectTimes[i] = n.detectedAt
			ir.Optimum = min(ir.Optimum, n.core.Incumbent())
		default:
			ir.DetectTimes[i] = math.Inf(1)
			ir.Terminated = false
		}
		ir.Expanded += n.met.Expanded
	}
	ir.Terminated = ir.Terminated && detected > 0
	ir.Redundant = ir.Expanded - ir.Unique
	ir.OptimumOK = ir.Terminated && ir.Optimum == sp.w.trueOpt
	agg := sp.met.AggregateBreakdown()
	ir.Work = agg.Work()
	ir.Overhead = agg.Overhead()
	return ir
}
