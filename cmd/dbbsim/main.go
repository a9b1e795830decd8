// Command dbbsim runs one simulated scenario of the decentralized
// fault-tolerant B&B algorithm and prints its measurements.
//
// Usage:
//
//	dbbsim -procs 16 -size 10000 -mean 0.05                 # generated tree
//	dbbsim -procs 8 -problem knapsack:20:7 -prune           # real problem from
//	dbbsim -procs 8 -problem qap:6:1 -granularity 2         #  its initial data
//	dbbsim -procs 8 -crash 30:3 -crash 40:5 \
//	       -nemesis loss:0.05                               # fault injection
//	dbbsim -procs 8 -crash 30:3:60 -nemesis dup:0.2 \
//	       -nemesis reorder:0.3                             # restart + chaos
//	dbbsim -procs 8 -nemesis partition:10-20:0,1 -prune     # link faults in the
//	dbbsim -procs 8 -nemesis flap:0-2:4:0-30                #  nemesis grammar the
//	dbbsim -procs 8 -nemesis replay:0.05:2                  #  live runtime speaks
//	dbbsim -procs 4 -join 25:4                              # double mid-solve
//	dbbsim -procs 3 -gantt                                  # ASCII Gantt
//	dbbsim -procs 16 -membership                            # §5.2 protocol on
//	dbbsim -procs 8 -instances 4 -prune                     # 4 concurrent
//	                                                        #  problem instances
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/btree"
	"gossipbnb/internal/dbnb"
	"gossipbnb/internal/metrics"
	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/protocol"
	"gossipbnb/internal/trace"
)

// crashList collects repeated -crash TIME:NODE[:RESTART] flags.
type crashList []dbnb.Crash

func (c *crashList) String() string { return fmt.Sprint(*c) }

func (c *crashList) Set(s string) error {
	parts := strings.Split(s, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return fmt.Errorf("want TIME:NODE or TIME:NODE:RESTART, got %q", s)
	}
	t, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return fmt.Errorf("bad crash time in %q: %v", s, err)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil {
		return fmt.Errorf("bad crash node in %q: %v", s, err)
	}
	cr := dbnb.Crash{Time: t, Node: n}
	if len(parts) == 3 {
		if cr.Restart, err = strconv.ParseFloat(parts[2], 64); err != nil {
			return fmt.Errorf("bad restart time in %q: %v", s, err)
		}
		if cr.Restart <= cr.Time {
			return fmt.Errorf("restart time %g must be after crash time %g in %q", cr.Restart, cr.Time, s)
		}
	}
	*c = append(*c, cr)
	return nil
}

// joinList collects repeated -join TIME:COUNT flags — elastic membership,
// the converse of -crash.
type joinList []dbnb.Join

func (j *joinList) String() string { return fmt.Sprint(*j) }

func (j *joinList) Set(s string) error {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return fmt.Errorf("want TIME:COUNT, got %q", s)
	}
	t, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return fmt.Errorf("bad join time in %q: %v", s, err)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil {
		return fmt.Errorf("bad join count in %q: %v", s, err)
	}
	if n <= 0 {
		return fmt.Errorf("join count must be positive in %q", s)
	}
	*j = append(*j, dbnb.Join{Time: t, Count: n})
	return nil
}

// nemesisList collects repeated -nemesis FAULT flags in the fault grammar
// the live runtime also speaks (internal/nemesis), parsed at the command
// line so a malformed spec fails there, not mid-run.
type nemesisList []nemesis.Fault

func (n *nemesisList) String() string { return fmt.Sprint(*n) }

func (n *nemesisList) Set(s string) error {
	f, err := nemesis.Parse(s)
	if err != nil {
		return err
	}
	*n = append(*n, f)
	return nil
}

// validateFlags rejects mutually inconsistent flag combinations up front,
// with an error naming both sides. -shards with -gantt is not one of them:
// that run clamps to one shard and the engine line says so.
func validateFlags(insts int, problem string, gantt bool, shards int, joins joinList) error {
	if insts < 0 {
		return fmt.Errorf("-instances must be >= 0, got %d", insts)
	}
	if insts > 0 {
		switch {
		case problem != "":
			return fmt.Errorf("-instances and -problem are mutually exclusive: -instances generates its own problems")
		case gantt:
			return fmt.Errorf("-instances does not support -gantt")
		case len(joins) > 0:
			return fmt.Errorf("-instances does not support -join")
		}
	}
	if shards < 0 {
		return fmt.Errorf("-shards must be >= 0, got %d: the separate serial kernel -1 used to select is gone, use -shards 1 (the default)", shards)
	}
	return nil
}

func main() { os.Exit(run()) }

// run is main's body behind an exit code, so the profile-finalizing defers
// complete before the process exits.
func run() int {
	log.SetFlags(0)
	log.SetPrefix("dbbsim: ")
	var crashes crashList
	var joins joinList
	var nemeses nemesisList
	var (
		procs    = flag.Int("procs", 8, "number of processes")
		shards   = flag.Int("shards", 1, "parallel event shards: N >= 1 exact, 0 = one per CPU")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		problem  = flag.String("problem", "", "solve a real problem from initial data, no recorded tree: knapsack:<n>:<seed> or qap:<n>:<seed>")
		size     = flag.Int("size", 10001, "generated tree size")
		mean     = flag.Float64("mean", 0.05, "generated mean node cost, seconds")
		prune    = flag.Bool("prune", false, "enable incumbent-based elimination")
		factor   = flag.Float64("granularity", 1, "node-cost multiplier (§6.3.1); a -problem expansion costs 0.01 s at 1")
		quiet    = flag.Float64("quiet", 0, "recovery quiet window, seconds (0 = default)")
		member   = flag.Bool("membership", false, "run the §5.2 membership protocol")
		gantt    = flag.Bool("gantt", false, "print an ASCII Gantt of the run")
		diffG    = flag.Bool("diffgossip", false, "anti-entropy diff gossip: digests + subtree pulls instead of full frontiers")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile (post-run, after GC) to this file")
		insts    = flag.Int("instances", 0, "multi-instance mode: solve this many concurrent knapsack instances over one cluster")
		instSize = flag.Int("instsize", 13, "multi-instance mode: knapsack items per instance")
		stagger  = flag.Float64("stagger", 5, "multi-instance mode: seconds between instance submissions")
	)
	flag.Var(&crashes, "crash", "crash a process: TIME:NODE, or TIME:NODE:RESTART to reboot it (repeatable)")
	flag.Var(&joins, "join", "add COUNT brand-new processes at TIME: TIME:COUNT (repeatable)")
	flag.Var(&nemeses, "nemesis", "inject a scheduled fault, windows in virtual seconds: partition, oneway, flap, stall, slow, corrupt, loss, dup, reorder or replay, e.g. partition:10-20:0,1, flap:0-2:4:0-30 or replay:0.05 (repeatable)")
	flag.Parse()

	if err := validateFlags(*insts, *problem, *gantt, *shards, joins); err != nil {
		log.Fatal(err)
	}

	// Profiling hooks, so hot-path work on the simulator starts from a
	// profile of a real scenario instead of a guess. Profiles are finalized
	// before the exit-code decision (os.Exit skips defers), so: both files
	// are created — fatally — before any profiling starts, and the deferred
	// finalizers only log.Print, never log.Fatal, lest one finalizer's
	// failure truncate the other profile.
	var cpuFile, memFile *os.File
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			log.Fatal(err)
		}
		cpuFile = f
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			log.Fatal(err)
		}
		memFile = f
	}
	if cpuFile != nil {
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				log.Print(err)
			}
		}()
	}
	if memFile != nil {
		defer func() {
			runtime.GC() // up-to-date live-heap statistics
			if err := pprof.WriteHeapProfile(memFile); err != nil {
				log.Print(err)
			}
			if err := memFile.Close(); err != nil {
				log.Print(err)
			}
		}()
	}

	var lg *trace.Log
	if *gantt {
		lg = &trace.Log{}
	}
	// CLI shard semantics: 0 asks for one shard per CPU; N >= 1 is exact.
	nshards := *shards
	if nshards == 0 {
		nshards = runtime.GOMAXPROCS(0)
	}
	cfg := dbnb.Config{
		Procs:         *procs,
		Shards:        nshards,
		Seed:          *seed,
		Prune:         *prune,
		CostFactor:    *factor,
		RecoveryQuiet: *quiet,
		UseMembership: *member,
		Crashes:       crashes,
		Joins:         joins,
		DiffGossip:    *diffG,
		Trace:         lg,
	}
	if len(nemeses) > 0 {
		cfg.Nemesis = nemesis.New(nemeses...)
	}

	if *insts > 0 {
		return runMulti(cfg, *insts, *instSize, *stagger, *seed)
	}

	var res dbnb.Result
	wall := time.Now()
	if *problem != "" {
		p, err := bnb.ParseSpec(*problem)
		if err != nil {
			log.Fatal(err)
		}
		ref := bnb.SolveProblem(p)
		fmt.Printf("problem: %s, sequential optimum %.6g (%d expansions)\n",
			*problem, ref.Value, ref.Expanded)
		res = dbnb.RunProblemRef(p, ref, cfg)
	} else {
		r := rand.New(rand.NewSource(*seed))
		tree := btree.Random(r, btree.RandomConfig{
			Size:         *size,
			Cost:         btree.CostModel{Mean: *mean, Sigma: 0.5},
			BoundSpread:  1,
			FeasibleProb: 0.1,
		})
		st := tree.Stats()
		fmt.Printf("tree: %d nodes, %.1f s uniprocessor, optimum %.6g\n",
			st.Size, st.TotalCost, st.Optimum)
		res = dbnb.Run(tree, cfg)
	}

	elapsed := time.Since(wall)
	fmt.Printf("terminated=%v  time=%.2fs  optimum=%.6g (correct=%v)\n",
		res.Terminated, res.Time, res.Optimum, res.OptimumOK)
	printEngine(res.Shards, cfg.Shards, res.Events, elapsed)
	fmt.Printf("expanded=%d  unique=%d  redundant=%d\n", res.Expanded, res.Unique, res.Redundant)
	plans, regions := res.Met.TotalRecoveries()
	fmt.Printf("recovery: %d plans, %d regions re-created\n", plans, regions)
	if len(joins) > 0 || len(crashes) > 0 {
		restarts := 0
		for _, c := range crashes {
			if c.Restart > c.Time {
				restarts++
			}
		}
		fmt.Printf("churn: %d joined, %d crashed (%d restarted), final pool %d processes\n",
			res.Joined, len(crashes), restarts, *procs+res.Joined)
	}
	printTotals(res.Met.AggregateBreakdown(), res.Net)
	fmt.Printf("payload: %d bytes total, %.0f bytes/process\n",
		res.Net.Bytes, float64(res.Net.Bytes)/float64(*procs))
	kindParts := make([]string, 0, protocol.KindCount)
	for k := 1; k < protocol.KindCount; k++ {
		if res.Net.KindSent[k] == 0 {
			continue
		}
		kindParts = append(kindParts, fmt.Sprintf("%s %d/%.3gMB",
			protocol.KindName(byte(k)), res.Net.KindSent[k], metrics.MB(res.Net.KindBytes[k])))
	}
	if len(kindParts) > 0 {
		fmt.Println("by kind:", strings.Join(kindParts, ", "))
	}
	fmt.Printf("storage: %.3f MB total, %.3f MB redundant\n",
		metrics.MB(int64(res.Met.TotalStorage())), metrics.MB(int64(res.Met.RedundantStorage())))
	if *gantt {
		fmt.Println()
		lg.Gantt(os.Stdout, 100)
	}
	if !res.Terminated {
		return 1
	}
	return 0
}

// printEngine reports the shard count that ran — and the requested one where
// the run clamped it (to the process count, or to one shard under -gantt) —
// with the simulator's event throughput.
func printEngine(ran, requested int, events uint64, elapsed time.Duration) {
	kernel := fmt.Sprintf("%d shards", ran)
	if ran != requested {
		kernel += fmt.Sprintf(" (%d requested)", requested)
	}
	fmt.Printf("engine: %s, %d events in %.2fs wall (%.3g events/sec)\n",
		kernel, events, elapsed.Seconds(), float64(events)/elapsed.Seconds())
}

// printTotals prints the time split and the network line of a run.
func printTotals(agg metrics.Breakdown, net nemesis.NetStats) {
	parts := make([]string, 0, 5)
	for _, a := range []metrics.Activity{metrics.BB, metrics.Comm, metrics.Contract, metrics.LB, metrics.Idle} {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", a, agg.Percent(a)))
	}
	fmt.Println("time split:", strings.Join(parts, ", "))
	fmt.Printf("network: %d msgs, %.3f MB, %d lost, %d cut, %d to dead\n",
		net.Sent, metrics.MB(net.Bytes), net.Lost, net.Cut, net.ToDead)
}

// runMulti is the -instances mode: k staggered random knapsacks multiplexed
// over one simulated cluster, each instance's optimum cross-checked against
// its own sequential solve, with a per-instance work/overhead table.
func runMulti(cfg dbnb.Config, k, size int, stagger float64, seed int64) int {
	specs := make([]dbnb.Instance, k)
	for i := range specs {
		r := rand.New(rand.NewSource(seed + int64(i)*1_000_003))
		specs[i] = dbnb.Instance{
			Problem:   bnb.RandomKnapsack(r, size),
			Seed:      seed + int64(i+1),
			StartTime: float64(i) * stagger,
		}
	}
	cfg.Instances = specs
	fmt.Printf("instances: %d concurrent knapsack:%d, submissions staggered %gs apart\n", k, size, stagger)

	wall := time.Now()
	res := dbnb.RunInstances(cfg)
	elapsed := time.Since(wall)

	fmt.Printf("terminated=%v  time=%.2fs (last instance)\n", res.Terminated, res.Time)
	printEngine(res.Shards, cfg.Shards, res.Events, elapsed)

	fmt.Printf("%-5s %-6s %-8s %-12s %-8s %-9s %-8s %-9s %-10s %-10s\n",
		"inst", "start", "done", "optimum", "correct", "expanded", "unique", "redundant", "work", "overhead")
	for _, ir := range res.Instances {
		done := fmt.Sprintf("%.2f", ir.Time)
		if !ir.Terminated {
			done = "never"
		}
		fmt.Printf("%-5d %-6g %-8s %-12.6g %-8v %-9d %-8d %-9d %-10s %-10s\n",
			ir.ID, ir.Start, done, ir.Optimum, ir.OptimumOK,
			ir.Expanded, ir.Unique, ir.Redundant,
			fmt.Sprintf("%.2fs", ir.Work), fmt.Sprintf("%.2fs", ir.Overhead))
	}

	printTotals(res.Met.AggregateBreakdown(), res.Net)
	if !res.Terminated {
		return 1
	}
	return 0
}
