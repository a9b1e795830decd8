package gb

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/btree"
	"gossipbnb/internal/dbnb"
	"gossipbnb/internal/exp"
	"gossipbnb/internal/live"
	"gossipbnb/internal/metrics"
	"gossipbnb/internal/protocol"
	"gossipbnb/internal/sim"
)

// Solve is what one solve of one input measured. Counts are the system's
// own (Result fields); Wall and Mallocs are the host's.
type Solve struct {
	OK      bool    // terminated with the sequential optimum
	Wall    float64 // host seconds
	Exec    float64 // execution time on the system's clock
	SeqExec float64 // sequential execution time on the same clock
	Exp     int64
	SeqExp  int64
	Msgs    int64
	Bytes   int64
	Events  uint64 // simulator only
	Mallocs uint64
	// Layer holds the per-layer counts read from the Result.
	Layer map[string]float64
}

// Input is one generated input of a workload: how to solve it, and the raw
// problem data the loopback harness and the micro-drivers replay.
type Input struct {
	// Run solves the input once. tr is nil in untraced runs.
	Run func(tr *liveTrace) Solve
	// Seed is the sub-seed the input was generated from.
	Seed int64
	// Tree is set for tree replays; Problems (with their sequential
	// references) for code-driven inputs.
	Tree     *btree.Tree
	Problems []bnb.Problem
	Refs     []bnb.Result
	// seqWall collects measured sequential solve walls (live inputs only).
	seqWall []float64
}

// Workload is one of the seven: its inputs come from the seed alone.
type Workload struct {
	WorkloadSpec
	// Live marks wall-clock runs, whose counts differ from solve to solve;
	// simulator counts must repeat exactly.
	Live bool
	// Wrapped marks drivers the traced run can instrument from outside:
	// Input.Run then honours its liveTrace (it takes a Problem or a Net).
	Wrapped bool
	// Serial, if set, solves an input on one simulator shard, for
	// sim.mesh.parallel_speedup.
	Serial func(in *Input, sz Sizes) Solve
	// Setup generates the cycle's inputs and their sequential references.
	Setup func(seed int64, sz Sizes) []*Input
	// Harness describes how the loopback harness drives an input.
	Harness func(in *Input, sz Sizes) harnessConfig
}

// ByName returns the workload called name.
func ByName(name string) (*Workload, error) {
	for i := range registry {
		if registry[i].Name == name {
			return &registry[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

var registry = buildRegistry()

func buildRegistry() []Workload {
	spec := func(name string) WorkloadSpec {
		for _, w := range Workloads {
			if w.Name == name {
				return w
			}
		}
		panic("gb: workload " + name + " missing from Workloads")
	}
	return []Workload{
		{WorkloadSpec: spec("sim-table1"), Setup: setupTable1(false), Harness: harnessReplay(false, false)},
		{WorkloadSpec: spec("sim-table1-diff"), Setup: setupTable1(true), Harness: harnessReplay(true, false)},
		{WorkloadSpec: spec("sim-faults"), Setup: setupFaults, Harness: harnessReplay(false, true)},
		{WorkloadSpec: spec("sim-stress10k"), Wrapped: true, Setup: setupStress, Harness: harnessProblems(protocol.BestFirst, noShare),
			Serial: func(in *Input, sz Sizes) Solve { return stressSolve(in, stressConfig(in.Seed, sz, 1), nil) }},
		{WorkloadSpec: spec("sim-multi8"), Setup: setupMulti, Harness: harnessProblems(protocol.DepthFirst, 0)},
		{WorkloadSpec: spec("live-tcp"), Live: true, Wrapped: true, Setup: setupLive(false), Harness: harnessProblems(protocol.DepthFirst, 0)},
		{WorkloadSpec: spec("live-tcp-crash"), Live: true, Wrapped: true, Setup: setupLive(true), Harness: harnessProblems(protocol.DepthFirst, 0)},
	}
}

// timed runs fn between two MemStats reads and returns its wall-clock and
// allocation count; the reads themselves stay outside the timed interval.
func timed(fn func()) (wall float64, mallocs uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return wall, m1.Mallocs - m0.Mallocs
}

// --- tree replays -------------------------------------------------------------

// table1Quiet is exp.LargeWorkload's RecoveryQuiet: 120 virtual seconds
// against a 3.47 s mean node cost.
const table1Quiet = 120

func setupTable1(diff bool) func(int64, Sizes) []*Input {
	return func(seed int64, sz Sizes) []*Input {
		ins := make([]*Input, sz.Table1Inputs)
		for i := range ins {
			s := subSeed(seed, 1, i)
			tree := exp.ScaledLargeWorkload(s, sz.Table1Nodes).Tree
			cfg := dbnb.Config{Procs: sz.Table1Procs, Seed: s, RecoveryQuiet: table1Quiet, DiffGossip: diff}
			ins[i] = replayInput(tree, tree.Stats(), cfg)
		}
		return ins
	}
}

func setupFaults(seed int64, sz Sizes) []*Input {
	ins := make([]*Input, sz.FaultsInputs)
	for i := range ins {
		s := subSeed(seed, 2, i)
		tree := exp.ScaledLargeWorkload(s, sz.FaultsNodes).Tree
		// The crash schedule keeps the issue's shape (crash i at 300+60i s
		// of a ~3250 s fault-free run, every third back 300 s later) as
		// shares of this tree's fault-free estimate.
		st := tree.Stats()
		est := st.TotalCost / float64(sz.FaultsProcs)
		crashes := make([]dbnb.Crash, 0, sz.FaultsCrashes)
		for c := 1; c <= sz.FaultsCrashes; c++ {
			cr := dbnb.Crash{Time: est * (0.09 + 0.018*float64(c)), Node: c}
			if c%3 == 0 {
				cr.Restart = cr.Time + 0.09*est
			}
			crashes = append(crashes, cr)
		}
		cfg := dbnb.Config{
			Procs: sz.FaultsProcs, Seed: s, RecoveryQuiet: table1Quiet, Crashes: crashes,
			Loss: 0.05, Duplicate: 0.05, Reorder: 0.05,
		}
		ins[i] = replayInput(tree, st, cfg)
	}
	return ins
}

func replayInput(tree *btree.Tree, st btree.Stats, cfg dbnb.Config) *Input {
	in := &Input{Tree: tree}
	// The sequential reference solve: the gate checks the distributed
	// optimum against it, not only against the simulator's own bookkeeping.
	ref := btree.Sequential(tree)
	in.Run = func(*liveTrace) Solve {
		var res dbnb.Result
		wall, mallocs := timed(func() { res = dbnb.Run(tree, cfg) })
		s := simSolve(res, wall, mallocs)
		s.OK = s.OK && res.Optimum == ref.Optimum
		s.SeqExp = int64(st.Size)
		s.SeqExec = st.TotalCost
		return s
	}
	return in
}

// simSolve fills a Solve from a single-instance simulator Result.
func simSolve(res dbnb.Result, wall float64, mallocs uint64) Solve {
	s := Solve{
		OK:      res.Terminated && res.OptimumOK,
		Wall:    wall,
		Exec:    res.Time,
		Exp:     int64(res.Expanded),
		Msgs:    res.Net.Sent,
		Bytes:   res.Net.Bytes,
		Events:  res.Events,
		Mallocs: mallocs,
		Layer:   map[string]float64{},
	}
	s.Layer["dbnb.term_detect_lag_s"] = res.Time - res.FirstDetect
	systemCounts(s.Layer, res.Met)
	breakdownCounts(s.Layer, res.Met.AggregateBreakdown())
	wireCounts(s.Layer, res.Net.KindSent[:], res.Net.KindBytes[:])
	return s
}

func systemCounts(dst map[string]float64, systems ...*metrics.System) {
	var reports, codes, comps, tables, requests, recoveries, peak, total, redundant int
	for _, sys := range systems {
		for i := range sys.Nodes {
			n := &sys.Nodes[i]
			reports += n.ReportsSent
			codes += n.ReportCodes
			comps += n.ReportedComps
			tables += n.TablesSent
			requests += n.WorkRequests
			recoveries += n.Recoveries
			if n.PeakPool > peak {
				peak = n.PeakPool
			}
		}
		total += sys.TotalStorage()
		redundant += sys.RedundantStorage()
	}
	dst["protocol.reports_sent"] = float64(reports)
	dst["protocol.report_codes"] = float64(codes) // feeds ctree.merge_wall_share, not itself a metric
	if codes > 0 {
		dst["protocol.report_compression"] = float64(comps) / float64(codes)
	}
	dst["protocol.tables_sent"] = float64(tables)
	dst["protocol.work_requests"] = float64(requests)
	dst["protocol.recoveries"] = float64(recoveries)
	dst["protocol.peak_pool"] = float64(peak)
	dst["metrics.storage_total_b"] = float64(total)
	dst["metrics.storage_redundant_b"] = float64(redundant)
}

func breakdownCounts(dst map[string]float64, b metrics.Breakdown) {
	dst["dbnb.bb_pct"] = b.Percent(metrics.BB)
	dst["dbnb.comm_pct"] = b.Percent(metrics.Comm)
	dst["dbnb.contract_pct"] = b.Percent(metrics.Contract)
	dst["dbnb.lb_pct"] = b.Percent(metrics.LB)
	dst["dbnb.idle_pct"] = b.Percent(metrics.Idle)
}

var wireKindByte = map[string]byte{
	"report":        protocol.KindReport,
	"table":         protocol.KindTable,
	"digest":        protocol.KindDigestReport,
	"subtree_reply": protocol.KindSubtreeReply,
	"work_request":  protocol.KindRequest,
	"work_grant":    protocol.KindGrant,
}

func wireCounts(dst map[string]float64, sent, bytes []int64) {
	for _, k := range wireKinds {
		b := wireKindByte[k]
		dst["protocol.wire."+k+"_msgs"] = float64(sent[b])
		dst["protocol.wire."+k+"_bytes"] = float64(bytes[b])
	}
	if req := sent[protocol.KindRequest]; req > 0 {
		dst["protocol.grant_ratio"] = float64(sent[protocol.KindGrant]) / float64(req)
	}
}

// --- code-driven simulator workloads ------------------------------------------

// simNodeCost is dbnb's default modeled CPU seconds per expansion; the
// per-code jitter is uniform in [0.5, 1.5), so a sequential run of n
// expansions is modeled at n times this.
const simNodeCost = 0.01

// noShare is a MinPoolToShare no pool reaches. sim-stress10k runs with it:
// with sharing on, whether process 0 grants work in the first probe round is
// a coin flip per seed, and the two outcomes differ 2-10x in wall-clock (a
// shared solve needs ~10 gossip rounds to converge on one table, and every
// process still busy when the termination broadcast lands sorts a
// 10000-message inbox by insertion). Denying every request leaves what the
// workload exists to measure — 9999 processes probing, gossiping empty
// tables and receiving the procs² termination broadcast — and makes it the
// same work on every seed.
const noShare = 1 << 30

func setupStress(seed int64, sz Sizes) []*Input {
	ins := make([]*Input, sz.StressInputs)
	for i := range ins {
		s := subSeed(seed, 3, i)
		k, ref := nearestKnapsack(s, sz.StressItems, sz.StressTarget, sz.StressDraws)
		in := &Input{Seed: s, Problems: []bnb.Problem{k}, Refs: []bnb.Result{ref}}
		cfg := stressConfig(s, sz, runtime.GOMAXPROCS(0))
		in.Run = func(tr *liveTrace) Solve { return stressSolve(in, cfg, tr) }
		ins[i] = in
	}
	return ins
}

// stressSolve runs one sim-stress10k solve under cfg; the traced run also
// calls it with one shard for sim.mesh.parallel_speedup.
func stressSolve(in *Input, cfg dbnb.Config, tr *liveTrace) Solve {
	p, ref := in.Problems[0], in.Refs[0]
	if tr != nil {
		p = tr.wrapProblem(p)
	}
	var res dbnb.Result
	wall, mallocs := timed(func() { res = dbnb.RunProblemRef(p, ref, cfg) })
	sv := simSolve(res, wall, mallocs)
	sv.SeqExp = int64(ref.Expanded)
	sv.SeqExec = simNodeCost * float64(ref.Expanded)
	return sv
}

func stressConfig(seed int64, sz Sizes, shards int) dbnb.Config {
	return dbnb.Config{Procs: sz.StressProcs, Seed: seed, Prune: true, Shards: shards, MinPoolToShare: noShare}
}

// multiStagger is the virtual seconds between instance submissions.
const multiStagger = 5

func setupMulti(seed int64, sz Sizes) []*Input {
	ins := make([]*Input, sz.MultiInputs)
	for i := range ins {
		in := &Input{}
		insts := make([]dbnb.Instance, sz.MultiInstances)
		var seqExp int64
		for j := range insts {
			s := subSeed(seed, 4, i*sz.MultiInstances+j)
			q, ref := nearestQAP(s, sz.MultiOrder, sz.MultiTarget, sz.MultiDraws)
			insts[j] = dbnb.Instance{Problem: q, Seed: s, StartTime: multiStagger * float64(j)}
			in.Problems = append(in.Problems, q)
			in.Refs = append(in.Refs, ref)
			seqExp += int64(ref.Expanded)
		}
		cfg := dbnb.Config{
			Procs: sz.MultiProcs, Seed: subSeed(seed, 5, i), Prune: true,
			Select: dbnb.DepthFirst, Shards: 1, Instances: insts,
		}
		in.Run = func(*liveTrace) Solve {
			var res dbnb.MultiResult
			wall, mallocs := timed(func() { res = dbnb.RunInstances(cfg) })
			sv := Solve{
				OK: res.Terminated, Wall: wall, Exec: res.Time, Msgs: res.Net.Sent, Bytes: res.Net.Bytes,
				Events: res.Events, Mallocs: mallocs, SeqExp: seqExp,
				SeqExec: simNodeCost * float64(seqExp), Layer: map[string]float64{},
			}
			lag := 0.0
			for _, ir := range res.Instances {
				sv.OK = sv.OK && ir.OptimumOK
				sv.Exp += int64(ir.Expanded)
				if l := ir.Time - ir.FirstDetect; l > lag {
					lag = l
				}
			}
			sv.Layer["dbnb.term_detect_lag_s"] = lag
			systemCounts(sv.Layer, res.Met.Systems...)
			breakdownCounts(sv.Layer, res.Met.AggregateBreakdown())
			wireCounts(sv.Layer, res.Net.KindSent[:], res.Net.KindBytes[:])
			return sv
		}
		ins[i] = in
	}
	return ins
}

// --- live TCP workloads --------------------------------------------------------

// liveTimeout bounds one live solve; a solve that hits it counts as failed.
const liveTimeout = 30 * time.Second

// crashAt schedules the three crashes of live-tcp-crash as multiples of the
// input's measured sequential solve wall. A fault-free 4-node solve takes
// ~3.6x the sequential wall on 2 cores, so these land at about a quarter,
// three eighths and a half of it — the issue's 0.8/1.2/1.6 s of 3.3 s — on a
// machine of any speed.
var crashAt = [...]float64{0.9, 1.35, 1.8}

func setupLive(crash bool) func(int64, Sizes) []*Input {
	return func(seed int64, sz Sizes) []*Input {
		ins := make([]*Input, sz.LiveInputs)
		for i := range ins {
			s := subSeed(seed, 6, i)
			q, ref := nearestQAP(s, sz.LiveOrder, sz.LiveTarget, sz.LiveDraws)
			in := &Input{Seed: s, Problems: []bnb.Problem{q}, Refs: []bnb.Result{ref}}
			in.measureSeq()
			in.Run = func(tr *liveTrace) Solve { return liveSolve(in, s, sz, crash, tr) }
			ins[i] = in
		}
		return ins
	}
}

// measureSeq times one sequential solve of a live input; speedup_vs_seq and
// the crash schedule use the median of the samples so far.
func (in *Input) measureSeq() {
	t0 := time.Now()
	bnb.SolveProblem(in.Problems[0])
	in.seqWall = append(in.seqWall, time.Since(t0).Seconds())
}

func liveSolve(in *Input, seed int64, sz Sizes, crash bool, tr *liveTrace) Solve {
	seq := median(in.seqWall)
	var p bnb.Problem = in.Problems[0]
	if tr != nil {
		p = tr.wrapProblem(p)
	}
	var (
		res   live.Result
		dials int64
		err   error
	)
	wall, mallocs := timed(func() {
		var tcp *live.TCPNetwork
		tcp, err = live.NewTCPNetwork(sz.LiveNodes)
		if err != nil {
			return
		}
		var nw live.Net = tcp
		if tr != nil {
			nw = tr.wrapNet(tcp)
		}
		cl := live.NewProblemClusterRef(p, in.Refs[0], live.Config{
			Nodes: sz.LiveNodes, Seed: seed, Prune: true, Select: protocol.DepthFirst,
			Network: nw, Timeout: liveTimeout,
		})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if crash {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				for i, mult := range crashAt {
					if i+1 >= sz.LiveNodes {
						return
					}
					select {
					case <-time.After(time.Duration(mult*seq*float64(time.Second)) - time.Since(start)):
						cl.Crash(live.NodeID(i + 1))
					case <-stop:
						return
					}
				}
			}()
		}
		res = cl.Run() // closes the network
		close(stop)
		wg.Wait()
		dials = tcp.DialStats()
	})
	if err != nil {
		return Solve{Wall: wall, Layer: map[string]float64{}}
	}
	sv := Solve{
		OK: res.Terminated && res.OptimumOK, Wall: wall, Exec: res.Elapsed.Seconds(), SeqExec: seq,
		Exp: int64(res.Expanded), SeqExp: int64(in.Refs[0].Expanded),
		Msgs: res.MsgsSent, Bytes: res.BytesSent, Mallocs: mallocs, Layer: map[string]float64{},
	}
	wireCounts(sv.Layer, res.Kinds.Sent[:], res.Kinds.Bytes[:])
	sv.Layer["protocol.reports_sent"] = float64(res.Kinds.Sent[protocol.KindReport] + res.Kinds.Sent[protocol.KindDigestReport])
	sv.Layer["protocol.tables_sent"] = float64(res.Kinds.Sent[protocol.KindTable])
	sv.Layer["protocol.work_requests"] = float64(res.Kinds.Sent[protocol.KindRequest])
	if res.Net.Sent > 0 {
		sv.Layer["live.net.dropped_share"] = float64(res.Net.Dropped) / float64(res.Net.Sent)
	}
	sv.Layer["live.tcp.dials"] = float64(dials)
	return sv
}

// paperLatency is the simulator's default network model, which the loopback
// harness shares: 1.5 ms + 5 µs per byte.
var paperLatency = sim.PaperLatency()
