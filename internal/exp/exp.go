// Package exp regenerates every table and figure of the paper's evaluation
// (§6.3), plus the comparison and ablation experiments DESIGN.md calls out.
// Each experiment is a pure function of a seed (runs are deterministic), and
// each has a Render companion that prints rows shaped like the paper's.
package exp

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"gossipbnb/internal/btree"
	"gossipbnb/internal/dbnb"
	"gossipbnb/internal/metrics"
)

// Workload bundles a basic tree with the algorithm parameters appropriate
// for its granularity.
type Workload struct {
	Name string
	Tree *btree.Tree
	// QuietFactor scales RecoveryQuiet relative to the default.
	Quiet float64
}

// SmallWorkload is the Figure 3 problem: ≈3,500 nodes, 0.01 s mean cost.
func SmallWorkload(seed int64) Workload {
	return Workload{Name: "small", Tree: btree.PaperSmall(seed), Quiet: 10}
}

// LargeWorkload is the Table 1 / Figure 4 problem: ≈79,600 nodes, 3.47 s
// mean cost (≈75 h of uniprocessor work).
func LargeWorkload(seed int64) Workload {
	return Workload{Name: "large", Tree: btree.PaperLarge(seed), Quiet: 120}
}

// TinyWorkload is the Figures 5/6 problem.
func TinyWorkload(seed int64) Workload {
	return Workload{Name: "tiny", Tree: btree.Tiny(seed), Quiet: 5}
}

// ScaledLargeWorkload is a Table 1-shaped workload (3.47 s mean node cost)
// of a custom size, for benchmarks that cannot afford the full 79,600-node
// sweep on every iteration.
func ScaledLargeWorkload(seed int64, size int) Workload {
	r := rand.New(rand.NewSource(seed))
	return Workload{
		Name: "large-scaled",
		Tree: btree.Random(r, btree.RandomConfig{
			Size:         size,
			Cost:         btree.CostModel{Mean: 3.47, Sigma: 0.6},
			BoundSpread:  1,
			FeasibleProb: 0.05,
		}),
		Quiet: 120,
	}
}

// Measure runs one configuration of a workload and extracts its Row.
func Measure(w Workload, procs int, seed int64) Row { return measure(w, procs, seed) }

// baseConfig builds the shared simulation configuration for a workload.
func baseConfig(w Workload, procs int, seed int64) dbnb.Config {
	return dbnb.Config{
		Procs:         procs,
		Seed:          seed,
		RecoveryQuiet: w.Quiet,
	}
}

// Row is one measured configuration, with the columns of Table 1 plus the
// extras Figure 3 stacks.
type Row struct {
	Procs       int
	ExecSeconds float64
	// Per-activity shares, percent of total process time.
	BBPct       float64
	CommPct     float64
	ContractPct float64
	LBPct       float64
	IdlePct     float64
	// Storage (whole system, bytes) and communication.
	StorageTotal     int
	StorageRedundant int
	CommMBPerHrProc  float64
	// Work accounting: Speedup is uniprocessor time over execution time,
	// Msgs every message sent.
	Speedup   float64
	Expanded  int
	Redundant int
	Reports   int
	Msgs      int64
	OptimumOK bool
}

// effort is Dwork/Halpern/Waarts's price of a run: expansions plus messages,
// per expansion the sequential algorithm makes.
func effort(expanded, redundant int, msgs int64) float64 {
	return (float64(expanded) + float64(msgs)) / float64(expanded-redundant)
}

// measure runs one configuration and extracts a Row.
func measure(w Workload, procs int, seed int64) Row {
	res := dbnb.Run(w.Tree, baseConfig(w, procs, seed))
	row := rowFrom(res, procs)
	if res.Time > 0 {
		row.Speedup = w.Tree.Stats().TotalCost / res.Time
	}
	return row
}

func rowFrom(res dbnb.Result, procs int) Row {
	agg := res.Met.AggregateBreakdown()
	row := Row{
		Procs:            procs,
		ExecSeconds:      res.Time,
		BBPct:            agg.Percent(metrics.BB),
		CommPct:          agg.Percent(metrics.Comm),
		ContractPct:      agg.Percent(metrics.Contract),
		LBPct:            agg.Percent(metrics.LB),
		IdlePct:          agg.Percent(metrics.Idle),
		StorageTotal:     res.Met.TotalStorage(),
		StorageRedundant: res.Met.RedundantStorage(),
		Expanded:         res.Expanded,
		Redundant:        res.Redundant,
		Msgs:             res.Net.Sent,
		OptimumOK:        res.OptimumOK,
	}
	for i := range res.Met.Nodes {
		row.Reports += res.Met.Nodes[i].ReportsSent
	}
	if res.Time > 0 && procs > 0 {
		hours := res.Time / 3600
		row.CommMBPerHrProc = metrics.MB(res.Net.Bytes) / hours / float64(procs)
	}
	return row
}

// --- Figure 3 -----------------------------------------------------------------

// Fig3Row is one stacked bar of Figure 3: average per-process seconds spent
// in each activity, for one processor count.
type Fig3Row struct {
	Procs                    int
	BB, Comm, Contract, LB   float64
	Idle                     float64
	ExecSeconds              float64
	OptimumOK                bool
	ExpandedNodes, Redundant int
	Msgs                     int64
	OverheadPctOfTotal       float64 // everything but BB, as % of total
}

// Figure3 measures the small problem on 1..8 processors.
func Figure3(seed int64) []Fig3Row {
	w := SmallWorkload(seed)
	out := make([]Fig3Row, 0, 8)
	for procs := 1; procs <= 8; procs++ {
		res := dbnb.Run(w.Tree, baseConfig(w, procs, seed))
		agg := res.Met.AggregateBreakdown()
		p := float64(procs)
		r := Fig3Row{
			Procs:         procs,
			BB:            agg.Get(metrics.BB) / p,
			Comm:          agg.Get(metrics.Comm) / p,
			Contract:      agg.Get(metrics.Contract) / p,
			LB:            agg.Get(metrics.LB) / p,
			Idle:          agg.Get(metrics.Idle) / p,
			ExecSeconds:   res.Time,
			OptimumOK:     res.OptimumOK,
			ExpandedNodes: res.Expanded,
			Redundant:     res.Redundant,
			Msgs:          res.Net.Sent,
		}
		if tot := agg.Total(); tot > 0 {
			r.OverheadPctOfTotal = 100 * (tot - agg.Get(metrics.BB)) / tot
		}
		out = append(out, r)
	}
	return out
}

// RenderFigure3 prints the rows as a text table plus ASCII stacked bars.
func RenderFigure3(w io.Writer, rows []Fig3Row) {
	fmt.Fprintln(w, "Figure 3: execution-time breakdown, small problem (~3,500 nodes, 0.01 s/node)")
	fmt.Fprintln(w, "procs  exec(s)   BB(s)  comm(s)  contr(s)  LB(s)  idle(s)  overhead%  effort  optimum")
	for _, r := range rows {
		fmt.Fprintf(w, "%5d  %7.2f  %6.2f  %7.3f  %8.3f  %5.2f  %7.2f  %8.1f%%  %6.3f  %v\n",
			r.Procs, r.ExecSeconds, r.BB, r.Comm, r.Contract, r.LB, r.Idle,
			r.OverheadPctOfTotal, effort(r.ExpandedNodes, r.Redundant, r.Msgs), r.OptimumOK)
	}
	fmt.Fprintln(w, "\nstacked bars (each char ≈ total/60):")
	max := 0.0
	for _, r := range rows {
		if t := r.BB + r.Comm + r.Contract + r.LB + r.Idle; t > max {
			max = t
		}
	}
	for _, r := range rows {
		scale := 60 / max
		bar := strings.Repeat("B", int(r.BB*scale+0.5)) +
			strings.Repeat("c", int(r.Comm*scale+0.5)) +
			strings.Repeat("t", int(r.Contract*scale+0.5)) +
			strings.Repeat("l", int(r.LB*scale+0.5)) +
			strings.Repeat(".", int(r.Idle*scale+0.5))
		fmt.Fprintf(w, "%2d |%s\n", r.Procs, bar)
	}
	fmt.Fprintln(w, "legend: B=B&B c=communication t=list contraction l=load balancing .=idle")
}

// --- Table 1 -------------------------------------------------------------------

// RenderTable1 prints rows with the paper's Table 1 columns.
func RenderTable1(w io.Writer, rows []Row) {
	fmt.Fprintln(w, "Table 1: simulated execution of the large problem (~79,600 nodes, 3.47 s/node)")
	fmt.Fprintln(w, "procs  exec(h)  speedup    BB%   contr%  storage(MB)  redund(MB)  comm(MB/h/proc)  effort  optimum")
	for _, r := range rows {
		fmt.Fprintf(w, "%5d  %7.2f  %7.2f  %5.2f%%  %5.2f%%  %11.2f  %10.2f  %15.2f  %6.3f  %v\n",
			r.Procs, r.ExecSeconds/3600, r.Speedup, r.BBPct, r.ContractPct,
			metrics.MB(int64(r.StorageTotal)), metrics.MB(int64(r.StorageRedundant)),
			r.CommMBPerHrProc, effort(r.Expanded, r.Redundant, r.Msgs), r.OptimumOK)
	}
	fmt.Fprintln(w, "(effort = (expansions + messages) / sequential expansions, Dwork/Halpern/Waarts)")
}

// --- Figure 4 -------------------------------------------------------------------

// RenderFigure4 prints the two series of Figure 4: execution time and
// communication against processors.
func RenderFigure4(w io.Writer, rows []Row) {
	fmt.Fprintln(w, "Figure 4 (left): execution time vs processors")
	plotSeries(w, rows, func(r Row) float64 { return r.ExecSeconds / 3600 }, "h")
	fmt.Fprintln(w, "\nFigure 4 (right): communication vs processors")
	plotSeries(w, rows, func(r Row) float64 { return r.CommMBPerHrProc }, "MB/proc/h")
}

func plotSeries(w io.Writer, rows []Row, f func(Row) float64, unit string) {
	max := 0.0
	for _, r := range rows {
		if v := f(r); v > max {
			max = v
		}
	}
	if max == 0 {
		max = 1
	}
	for _, r := range rows {
		v := f(r)
		fmt.Fprintf(w, "%4d | %-50s %8.2f %s\n",
			r.Procs, strings.Repeat("#", int(v/max*50+0.5)), v, unit)
	}
}

// pruneWorkload builds a tree with enough bound spread that incumbent-based
// elimination matters — the workload for pruning-sensitive ablations.
func pruneWorkload(seed int64) Workload {
	r := rand.New(rand.NewSource(seed))
	return Workload{
		Name: "prunable",
		Tree: btree.Random(r, btree.RandomConfig{
			Size:         6001,
			Cost:         btree.CostModel{Mean: 0.02, Sigma: 0.4},
			BoundSpread:  0.25,
			FeasibleProb: 0.004,
		}),
		Quiet: 10,
	}
}
