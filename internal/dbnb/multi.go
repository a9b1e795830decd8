package dbnb

import (
	"runtime"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/metrics"
	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/protocol"
)

// Multi-instance runs: one simulated cluster solving several problem
// instances concurrently, each scoped to its own wire InstanceID. The paper's
// mechanism is per-problem by construction — the completion tree and the
// termination detector scope to one root — so multiplexing is namespacing,
// not a second driver: every process hosts an instance.Mux routing inbound
// messages to one node (execution context) per instance, and each instance
// runs the unmodified §5 protocol among its peers' same-instance cores,
// through the same harness as a single-problem run.
//
// Every instance has its own modeled execution context per process (an
// independent worker slice: own busy periods, own timers, own randomness
// stream derived from (seed, instance, process)), while the network
// endpoints are shared. That makes failure-free instances causally
// independent — the basis of the isolation guarantee the chaos tests pin —
// and keeps runs deterministic in (config, seed) and invariant in the shard
// count, by the mesh's wake-event + canonical batch-order discipline. Chaos
// draws (loss/dup/reorder/replay) come from shared network streams, so under
// chaos only each instance's solved optimum — not its event trajectory — is
// isolation-invariant.

// InstanceResult is one instance's slice of a run: one of a multi-instance
// run's, or the whole of a single-problem run's, which Result embeds.
type InstanceResult struct {
	// ID is the instance's wire identifier (its 1-based Instances position).
	ID protocol.InstanceID
	// Terminated reports whether every process that did not fail this
	// instance detected its termination before MaxTime.
	Terminated bool
	// Start is the instance's submission time; Time is when the last live
	// process detected its termination; FirstDetect the first.
	Start       float64
	Time        float64
	FirstDetect float64
	// Optimum is the best solution value known to the instance's terminated
	// processes; OptimumOK compares it against the instance's own sequential
	// solve (SeqOptimum, found in SeqExpanded expansions). RunInstances
	// solves that reference on a goroutine beside the simulation and the
	// result carries it once the run is over; RunProblemRef takes it from
	// its caller and Run reads it off the recorded tree.
	Optimum     float64
	OptimumOK   bool
	SeqOptimum  float64
	SeqExpanded int
	// Expanded/Unique/Redundant are this instance's expansion counts.
	Expanded  int
	Unique    int
	Redundant int
	// Completions counts completion events summed over processes.
	Completions int
	// DetectTimes is per-process detection, indexed by process identity
	// (NaN = failed for this instance, +Inf = never detected).
	DetectTimes []float64
	// Work and Overhead are the instance's modeled CPU seconds summed over
	// processes: BB expansion vs. communication + contraction + load
	// balancing (Dwork/Halpern/Waarts-style accounting, per tenant).
	Work     float64
	Overhead float64
}

// MultiResult summarizes a multi-instance run.
type MultiResult struct {
	// Terminated reports whether every instance terminated.
	Terminated bool
	// Time is when the last instance finished.
	Time      float64
	Instances []InstanceResult
	// Events is the total simulator events fired; Shards how many event
	// shards ran.
	Events uint64
	Shards int
	// Met is the instance-labeled metrics registry: Met.At(i) is instance
	// i's per-process breakdowns and counters.
	Met *metrics.Multi
	// Net is the shared network's traffic ledger (all instances together).
	Net nemesis.NetStats
}

// RunInstances simulates the cluster solving every cfg.Instances problem
// concurrently and returns the per-instance measurements. Each instance's
// optimum is cross-checked against its own sequential solve. Runs are
// deterministic in (cfg, seed); failure-free runs are invariant in the shard
// count. Under UseMembership every process runs one §5.2 member, whose view
// all its instances share. Features whose state is inherently single-instance
// — tracing, elastic joins, per-link latency — are rejected, and so is a
// latency model without a positive floor.
func RunInstances(cfg Config) MultiResult {
	if len(cfg.Instances) == 0 {
		panic("dbnb: RunInstances requires at least one Instance")
	}
	cfg = cfg.withDefaults()
	if cfg.Trace != nil || len(cfg.Joins) > 0 ||
		cfg.LinkLatency != nil || cfg.fireHook != nil || shardLookahead(cfg) <= 0 {
		panic("dbnb: RunInstances does not support Trace, Joins, LinkLatency, or a latency model without a positive floor")
	}
	specs := make([]*spec, len(cfg.Instances))
	for i, in := range cfg.Instances {
		specs[i] = &spec{
			id:       protocol.InstanceID(i + 1),
			idx:      i,
			start:    max(in.StartTime, 0),
			seed:     in.Seed,
			seedNode: i % cfg.Procs, // spread the roots across processes
			w:        problemWorkload(in.Problem, bnb.Result{}),
		}
	}
	// Sequential references beside the simulation: they are the OptimumOK
	// cross-check and the throughput baseline the experiments compare
	// against, and nothing the simulation reads, so one goroutine of their
	// own solves them while the harness is built and run, and only fold,
	// after the run, reads them.
	refs := solveRefs(cfg.Instances, specs)
	defer refs.wait()
	h := newHarness(cfg, specs, true)
	h.refs = refs
	h.yieldUntil(refs.done)
	return h.run()
}

// refSolve is the one goroutine that solves RunInstances' sequential
// references, in instance order, storing each on its spec. One, not one per
// instance: the simulation runs beside it, and more runnable references would
// time-slice the simulation's own goroutine.
type refSolve struct {
	done  chan struct{} // closed when the goroutine is over
	fault any           // a panic it met
}

func solveRefs(ins []Instance, specs []*spec) *refSolve {
	r := &refSolve{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		defer func() { r.fault = recover() }()
		for i, in := range ins {
			ref := bnb.SolveProblem(in.Problem)
			specs[i].w.trueOpt, specs[i].w.seqExpanded = ref.Value, ref.Expanded
		}
	}()
	return r
}

// wait joins the goroutine and re-raises any panic it met. It may be called
// again.
func (r *refSolve) wait() {
	<-r.done
	if r.fault != nil {
		panic(r.fault)
	}
}

// yieldEvery is how many events a shard fires between yields of its
// processor while the references are solved: well under a millisecond of
// simulation.
const yieldEvery = 1024

// yieldUntil makes every shard's kernel yield its processor every yieldEvery
// events until done is closed, then drop the hook. While the references are
// solved, the simulation and the reference goroutine are both CPU-bound and
// reach no scheduling point of their own, so with one processor each the
// garbage collector's mark worker waits for a whole preemption slice, both
// keep allocating, and the heap runs far past its goal: sim-multi8's peak
// RSS rose by a third without the yields. A yield moves no event.
func (h *harness) yieldUntil(done <-chan struct{}) {
	for _, sh := range h.shards {
		k, n := sh.k, 0
		k.SetFireHook(func(float64, uint64) {
			if n++; n%yieldEvery != 0 {
				return
			}
			select {
			case <-done:
				k.SetFireHook(nil)
			default:
				runtime.Gosched()
			}
		})
	}
}
