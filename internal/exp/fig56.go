package exp

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"gossipbnb/internal/dbnb"
	"gossipbnb/internal/metrics"
	"gossipbnb/internal/trace"
)

// GanttResult bundles a traced run with its rendered chart.
type GanttResult struct {
	Result dbnb.Result
	Log    *trace.Log
}

// Figure5 runs the very small problem on three processors with no failures
// and returns the traced execution (the paper's Jumpshot snapshot).
func Figure5(seed int64) GanttResult {
	w := TinyWorkload(seed)
	var lg trace.Log
	cfg := baseConfig(w, 3, seed)
	cfg.Trace = &lg
	res := dbnb.Run(w.Tree, cfg)
	return GanttResult{Result: res, Log: &lg}
}

// Figure6 repeats Figure 5 but crashes two of the three processors at about
// 85% of the failure-free execution time; the surviving processor recovers
// the lost work and terminates correctly.
func Figure6(seed int64) GanttResult {
	w := TinyWorkload(seed)
	base := dbnb.Run(w.Tree, baseConfig(w, 3, seed))
	crashAt := 0.85 * base.Time
	var lg trace.Log
	cfg := baseConfig(w, 3, seed)
	cfg.Trace = &lg
	cfg.Crashes = []dbnb.Crash{
		{Time: crashAt, Node: 1},
		{Time: crashAt * 1.02, Node: 2},
	}
	res := dbnb.Run(w.Tree, cfg)
	return GanttResult{Result: res, Log: &lg}
}

// RenderGantt writes the run summary and the ASCII Gantt chart.
func RenderGantt(w io.Writer, title string, g GanttResult) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "terminated=%v  time=%.2fs  optimum ok=%v  expanded=%d  redundant=%d\n",
		g.Result.Terminated, g.Result.Time, g.Result.OptimumOK,
		g.Result.Expanded, g.Result.Redundant)
	g.Log.Gantt(w, 100)
}

// --- fault-tolerance verification (§6.3.2, §5.5) --------------------------------

// FTRow is one fault-injection scenario outcome.
type FTRow struct {
	Procs      int
	Crashed    int
	CrashAtPct float64 // fraction of failure-free time
	Terminated bool
	OptimumOK  bool
	SlowdownX  float64 // time / failure-free time
	Redundant  int
}

// FaultTolerance verifies the paper's headline claim: the loss of up to all
// but one resource does not affect the quality of the solution. It crashes
// k of n processes at several points of the execution and checks
// termination and optimality every time.
func FaultTolerance(seed int64) []FTRow {
	w := TinyWorkload(seed)
	var out []FTRow
	for _, procs := range []int{3, 6} {
		base := dbnb.Run(w.Tree, baseConfig(w, procs, seed))
		for _, frac := range []float64{0.25, 0.5, 0.85} {
			for _, kill := range slices.Compact([]int{1, procs / 2, procs - 1}) {
				cfg := baseConfig(w, procs, seed)
				for i := 0; i < kill; i++ {
					cfg.Crashes = append(cfg.Crashes, dbnb.Crash{
						Time: frac*base.Time + 0.1*float64(i),
						Node: procs - 1 - i, // keep process 0 (holds early work) last
					})
				}
				res := dbnb.Run(w.Tree, cfg)
				slow := math.NaN()
				if base.Time > 0 {
					slow = res.Time / base.Time
				}
				out = append(out, FTRow{
					Procs: procs, Crashed: kill, CrashAtPct: frac,
					Terminated: res.Terminated, OptimumOK: res.OptimumOK,
					SlowdownX: slow, Redundant: res.Redundant,
				})
			}
		}
	}
	return out
}

// RenderFaultTolerance prints the scenario matrix.
func RenderFaultTolerance(w io.Writer, rows []FTRow) {
	fmt.Fprintln(w, "Fault tolerance: crash k of n processes at t = pct of failure-free time")
	fmt.Fprintln(w, "procs  crashed  at%   terminated  optimum  slowdown  redundant")
	for _, r := range rows {
		fmt.Fprintf(w, "%5d  %7d  %3.0f%%  %10v  %7v  %7.2fx  %9d\n",
			r.Procs, r.Crashed, 100*r.CrashAtPct, r.Terminated, r.OptimumOK,
			r.SlowdownX, r.Redundant)
	}
}

// --- granularity sweep (§6.3.1) ---------------------------------------------------

// GranRow is one granularity configuration.
type GranRow struct {
	Factor      float64
	ExecSeconds float64
	BBPct       float64
	IdlePct     float64
	MsgsPerSec  float64
	OptimumOK   bool
}

// Granularity multiplies all node costs by constant factors, reproducing the
// §6.3.1 observations: coarser granularity improves load balance, while
// fixed-interval reporting makes communication per unit work grow as
// granularity coarsens.
func Granularity(seed int64) []GranRow {
	w := SmallWorkload(seed)
	var out []GranRow
	for _, f := range []float64{0.25, 0.5, 1, 2, 4, 8} {
		cfg := baseConfig(w, 8, seed)
		cfg.CostFactor = f
		res := dbnb.Run(w.Tree, cfg)
		agg := res.Met.AggregateBreakdown()
		var bbPct, idlePct float64
		if agg.Total() > 0 {
			bbPct = agg.Percent(metrics.BB)
			idlePct = agg.Percent(metrics.Idle)
		}
		r := GranRow{
			Factor: f, ExecSeconds: res.Time,
			BBPct: bbPct, IdlePct: idlePct,
			OptimumOK: res.Terminated && res.OptimumOK,
		}
		if res.Time > 0 {
			r.MsgsPerSec = float64(res.Net.Sent) / res.Time
		}
		out = append(out, r)
	}
	return out
}

// RenderGranularity prints the sweep.
func RenderGranularity(w io.Writer, rows []GranRow) {
	fmt.Fprintln(w, "Granularity sweep: node costs × factor, 8 processors, small problem")
	fmt.Fprintln(w, "factor  exec(s)    BB%   idle%   msgs/s  optimum")
	for _, r := range rows {
		fmt.Fprintf(w, "%6.2f  %7.1f  %5.1f  %6.1f  %7.1f  %v\n",
			r.Factor, r.ExecSeconds, r.BBPct, r.IdlePct, r.MsgsPerSec, r.OptimumOK)
	}
	fmt.Fprintln(w, strings.TrimSpace(`
expected shape (§6.3.1): BB share rises and idle share falls as granularity
coarsens; message rate per second of execution falls, but messages per unit
of useful work rise because reports are sent at fixed time intervals.`))
}
