package exp

import (
	"fmt"
	"io"

	"gossipbnb/internal/btree"
	"gossipbnb/internal/dbnb"
	"gossipbnb/internal/metrics"
	"gossipbnb/internal/sim"
)

// --- report policy ablation (DESIGN.md §5.2) --------------------------------------

// ReportRow is one (c, m) work-report policy.
type ReportRow struct {
	Batch       int // c: codes per report
	Fanout      int // m: members per report
	ExecSeconds float64
	CommMB      float64
	ContractPct float64
	DetectLag   float64 // last detection − first detection
	OptimumOK   bool
}

// AblationReportPolicy sweeps the paper's c (batch) and m (fanout)
// parameters: larger batches compress better and cost less communication
// but delay information spread; larger fanout spreads faster at higher
// message cost.
func AblationReportPolicy(seed int64) []ReportRow {
	w := SmallWorkload(seed)
	var out []ReportRow
	for _, c := range []int{2, 8, 32} {
		for _, m := range []int{1, 2, 4} {
			cfg := baseConfig(w, 8, seed)
			cfg.ReportBatch = c
			cfg.ReportFanout = m
			res := dbnb.Run(w.Tree, cfg)
			agg := res.Met.AggregateBreakdown()
			out = append(out, ReportRow{
				Batch: c, Fanout: m,
				ExecSeconds: res.Time,
				CommMB:      metrics.MB(res.Net.Bytes),
				ContractPct: agg.Percent(metrics.Contract),
				DetectLag:   res.Time - res.FirstDetect,
				OptimumOK:   res.Terminated && res.OptimumOK,
			})
		}
	}
	return out
}

// RenderAblationReportPolicy prints the sweep.
func RenderAblationReportPolicy(w io.Writer, rows []ReportRow) {
	fmt.Fprintln(w, "Ablation: work-report batch c and fanout m (8 processes, small problem)")
	fmt.Fprintln(w, "    c    m  exec(s)  comm(MB)  contract%  detect-lag(s)  optimum")
	for _, r := range rows {
		fmt.Fprintf(w, "%5d  %3d  %7.2f  %8.3f  %8.2f%%  %13.2f  %v\n",
			r.Batch, r.Fanout, r.ExecSeconds, r.CommMB, r.ContractPct, r.DetectLag, r.OptimumOK)
	}
}

// --- recovery patience ablation (DESIGN.md §5.3) -----------------------------------

// RecoveryRow is one recovery-trigger configuration under a crash scenario.
type RecoveryRow struct {
	Procs, Crashes int // the scenario: 4/2 on a clean network, or 32/24 under 5 % chaos
	Patience       int
	Quiet          float64
	ExecSeconds    float64 // mean per solve
	Redundant      int     // summed over the row's solves, like the next two
	Plans          int     // recovery plans drawn
	Recoveries     int     // regions those plans re-created
	WorkRatio      float64 // expansions / sequential expansions
	Effort         float64 // (expansions + messages sent) / sequential expansions: Dwork/Halpern/Waarts
	OptimumOK      bool
}

// recoverySolve is one solve of a recovery scenario: a tree and its crash
// schedule, the trigger still to be set.
type recoverySolve struct {
	tree *btree.Tree
	cfg  dbnb.Config
}

// recoveryRow measures one trigger setting over a scenario's solves.
func recoveryRow(patience int, quiet float64, solves []recoverySolve) RecoveryRow {
	r := RecoveryRow{
		Procs: solves[0].cfg.Procs, Crashes: len(solves[0].cfg.Crashes),
		Patience: patience, Quiet: quiet, OptimumOK: true,
	}
	seq, expanded, msgs := 0, 0, int64(0)
	for _, s := range solves {
		tree, cfg := s.tree, s.cfg
		cfg.RecoveryPatience, cfg.RecoveryQuiet = patience, quiet
		res := dbnb.Run(tree, cfg)
		plans, regions := res.Met.TotalRecoveries()
		r.ExecSeconds += res.Time / float64(len(solves))
		r.Redundant += res.Redundant
		r.Plans += plans
		r.Recoveries += regions
		r.OptimumOK = r.OptimumOK && res.Terminated && res.OptimumOK
		seq += tree.Size()
		expanded += res.Expanded
		msgs += res.Net.Sent
	}
	r.WorkRatio = float64(expanded) / float64(seq)
	r.Effort = (float64(expanded) + float64(msgs)) / float64(seq)
	return r
}

// recoveryFaultsTrees is how many trees each row of the 32-process block
// sums: one solve's work ratio scatters by ±0.3, four make a row readable.
const recoveryFaultsTrees = 4

// AblationRecoveryPatience sweeps how eagerly survivors presume failure — the
// paper's trade-off between recovery speed and redundant work — on two
// scenarios. The first nine rows crash half of four processes mid-run: one or
// two recoverers, a complement of a few regions. The next nine are the shape
// of the benchmark's sim-faults (32 processes on 2 501-node Table 1-shaped
// trees, crashes 1..24 at est·(0.09+0.018·i), every third back 0.09·est later,
// 5 % loss, duplication and reordering), where many recoverers face the same
// few dozen regions at once and what a plan draws decides how often they
// collide.
func AblationRecoveryPatience(seed int64) []RecoveryRow {
	w := TinyWorkload(seed)
	base := dbnb.Run(w.Tree, baseConfig(w, 4, seed))
	mid := 0.5 * base.Time
	tiny := recoverySolve{w.Tree, baseConfig(w, 4, seed)}
	tiny.cfg.Crashes = []dbnb.Crash{{Time: mid, Node: 2}, {Time: mid + 0.1, Node: 3}}
	var out []RecoveryRow
	for _, patience := range []int{1, 3, 6} {
		for _, quiet := range []float64{2, 8, 24} {
			out = append(out, recoveryRow(patience, quiet, []recoverySolve{tiny}))
		}
	}

	const procs, crashes = 32, 24
	faults := make([]recoverySolve, recoveryFaultsTrees)
	for i := range faults {
		s := sim.DeriveSeed(seed, i)
		tree := ScaledLargeWorkload(s, 2501).Tree
		est := tree.Stats().TotalCost / procs
		cfg := dbnb.Config{Procs: procs, Seed: s, Loss: 0.05, Duplicate: 0.05, Reorder: 0.05}
		for c := 1; c <= crashes; c++ {
			cr := dbnb.Crash{Time: est * (0.09 + 0.018*float64(c)), Node: c}
			if c%3 == 0 {
				cr.Restart = cr.Time + 0.09*est
			}
			cfg.Crashes = append(cfg.Crashes, cr)
		}
		faults[i] = recoverySolve{tree, cfg}
	}
	for _, patience := range []int{1, 3, 6} {
		for _, quiet := range []float64{30, 120, 480} {
			out = append(out, recoveryRow(patience, quiet, faults))
		}
	}
	return out
}

// RenderAblationRecoveryPatience prints the sweep, one block per scenario.
func RenderAblationRecoveryPatience(w io.Writer, rows []RecoveryRow) {
	fmt.Fprintln(w, "Ablation: recovery trigger (patience × quiet window)")
	procs := 0
	for _, r := range rows {
		if r.Procs != procs {
			procs = r.Procs
			if procs == 4 {
				fmt.Fprintf(w, "%d of %d processes crash, clean network, one tree:\n", r.Crashes, r.Procs)
			} else {
				fmt.Fprintf(w, "%d of %d processes crash (every third restarts), 5%% loss/dup/reorder, sums over %d trees:\n",
					r.Crashes, r.Procs, recoveryFaultsTrees)
			}
			fmt.Fprintln(w, "patience  quiet(s)   exec(s)  redundant  plans  re-created  work_ratio  effort  optimum")
		}
		fmt.Fprintf(w, "%8d  %8.0f  %8.2f  %9d  %5d  %10d  %10.3f  %6.2f  %v\n",
			r.Patience, r.Quiet, r.ExecSeconds, r.Redundant, r.Plans, r.Recoveries, r.WorkRatio, r.Effort, r.OptimumOK)
	}
	fmt.Fprintln(w, "(eager triggers recover faster but redo more; patient triggers waste idle time.")
	fmt.Fprintln(w, " work_ratio = expansions / sequential expansions; effort = (expansions + messages) / sequential")
	fmt.Fprintln(w, " expansions, Dwork/Halpern/Waarts. A plan draws max(min(4, 1+N/4), N/8) of the N outstanding regions")
	fmt.Fprintln(w, " uniformly. The first block never showed what the old plan — three of the first eight regions in")
	fmt.Fprintln(w, " walk order — cost: with two recoverers its complement rarely exceeded the window. The same holds")
	fmt.Fprintln(w, " for the 3–6-process -ft matrix, where the window mostly was the whole complement: under the")
	fmt.Fprintln(w, " uniform plan its rows re-draw and the sums over seeds 1–12 stay within noise, slowdown −5 %,")
	fmt.Fprintln(w, " redundant expansions +6 %. At 32 processes the old plan read work_ratio 1.83, effort 10.6.)")
}

// --- compression ablation (§5.3.2) ---------------------------------------------------

// CompressRow measures work-report compression for one configuration.
type CompressRow struct {
	Rule            string
	Batch           int
	Completions     int     // completions covered by flushed reports
	CodesSent       int     // codes actually transmitted in those reports
	CompressionRate float64 // completions / codes sent
}

// AblationCompression measures how the recursive sibling-merge compresses
// work reports (§5.3.2: "the taller the subtree completed locally, the
// larger the number of codes that do not need to be sent"). Local subtree
// height is governed by the selection rule — depth-first completes whole
// subtrees in place, best-first hops across the frontier — and by the batch
// size c, which bounds how much may accumulate before a flush.
func AblationCompression(seed int64) []CompressRow {
	w := SmallWorkload(seed)
	var out []CompressRow
	for _, rule := range []dbnb.SelectRule{dbnb.BestFirst, dbnb.DepthFirst} {
		for _, batch := range []int{4, 8, 16} {
			cfg := baseConfig(w, 4, seed)
			cfg.Select = rule
			cfg.ReportBatch = batch
			cfg.ReportFanout = 1 // count each code once
			res := dbnb.Run(w.Tree, cfg)
			codes, comps := 0, 0
			for i := range res.Met.Nodes {
				codes += res.Met.Nodes[i].ReportCodes
				comps += res.Met.Nodes[i].ReportedComps
			}
			name := "best-first"
			if rule == dbnb.DepthFirst {
				name = "depth-first"
			}
			row := CompressRow{Rule: name, Batch: batch, Completions: comps, CodesSent: codes}
			if codes > 0 {
				row.CompressionRate = float64(comps) / float64(codes)
			}
			out = append(out, row)
		}
	}
	return out
}

// RenderAblationCompression prints the locality-vs-compression table.
func RenderAblationCompression(w io.Writer, rows []CompressRow) {
	fmt.Fprintln(w, "Ablation: report compression vs selection rule and batch (4 processes)")
	fmt.Fprintln(w, "rule         batch  completions  codes sent  compression(x)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s  %5d  %11d  %10d  %14.2f\n",
			r.Rule, r.Batch, r.Completions, r.CodesSent, r.CompressionRate)
	}
	fmt.Fprintln(w, "(depth-first completes tall subtrees in place, so sibling merges erase")
	fmt.Fprintln(w, " most codes before they are sent — the paper's loaded-processor effect)")
}

// --- selection-rule ablation (DESIGN.md §5.5) ---------------------------------------

// SelectRow compares local selection rules on a prunable workload.
type SelectRow struct {
	Rule        string
	ExecSeconds float64
	Expanded    int
	PeakPool    int // largest pool any process held (memory pressure)
	OptimumOK   bool
}

// AblationSelectRule compares best-first and depth-first local selection on
// a prunable tree: best-first expands fewer nodes (stronger incumbents
// sooner), depth-first holds smaller pools and compresses reports better.
func AblationSelectRule(seed int64) []SelectRow {
	w := pruneWorkload(seed)
	var out []SelectRow
	for _, rule := range []dbnb.SelectRule{dbnb.BestFirst, dbnb.DepthFirst} {
		cfg := baseConfig(w, 8, seed)
		cfg.Select = rule
		cfg.Prune = true
		res := dbnb.Run(w.Tree, cfg)
		peak := 0
		for i := range res.Met.Nodes {
			if res.Met.Nodes[i].PeakPool > peak {
				peak = res.Met.Nodes[i].PeakPool
			}
		}
		name := "best-first"
		if rule == dbnb.DepthFirst {
			name = "depth-first"
		}
		out = append(out, SelectRow{
			Rule:        name,
			ExecSeconds: res.Time,
			Expanded:    res.Expanded,
			PeakPool:    peak,
			OptimumOK:   res.Terminated && res.OptimumOK,
		})
	}
	return out
}

// RenderAblationSelectRule prints the comparison.
func RenderAblationSelectRule(w io.Writer, rows []SelectRow) {
	fmt.Fprintln(w, "Ablation: selection rule on a prunable tree (8 processes, pruning on)")
	fmt.Fprintln(w, "rule         exec(s)  expanded  peak pool  optimum")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s  %7.1f  %8d  %9d  %v\n",
			r.Rule, r.ExecSeconds, r.Expanded, r.PeakPool, r.OptimumOK)
	}
}

// --- adaptive-report ablation (§6.3.1, §7 future work) ------------------------------

// AdaptiveRow compares fixed and adaptive report flushing at one granularity.
type AdaptiveRow struct {
	Factor          float64 // node-cost multiplier
	Mode            string  // "fixed" or "adaptive"
	Reports         int
	CodesPerReport  float64
	CommMBPerHrWork float64 // report traffic per hour of useful work
	OptimumOK       bool
}

// AblationAdaptiveReports reproduces the paper's §6.3.1 observation — fixed
// report intervals waste communication as granularity coarsens — and
// implements its proposed fix: scale the flush interval with the observed
// per-subproblem execution time. The adaptive mode should cut reports per
// unit of work at coarse granularity without changing the answer.
func AblationAdaptiveReports(seed int64) []AdaptiveRow {
	w := SmallWorkload(seed)
	var out []AdaptiveRow
	for _, factor := range []float64{1, 32, 128} {
		for _, adaptive := range []bool{false, true} {
			cfg := baseConfig(w, 8, seed)
			cfg.CostFactor = factor
			cfg.AdaptiveReports = adaptive
			// A short fixed interval makes the paper's observation visible:
			// at coarse granularity it fires long before a batch fills.
			cfg.ReportTimeout = 2
			res := dbnb.Run(w.Tree, cfg)
			reports, codes := 0, 0
			for i := range res.Met.Nodes {
				reports += res.Met.Nodes[i].ReportsSent
				codes += res.Met.Nodes[i].ReportCodes
			}
			mode := "fixed"
			if adaptive {
				mode = "adaptive"
			}
			row := AdaptiveRow{
				Factor:    factor,
				Mode:      mode,
				Reports:   reports,
				OptimumOK: res.Terminated && res.OptimumOK,
			}
			if reports > 0 {
				row.CodesPerReport = float64(codes) / float64(reports)
			}
			bbHours := res.Met.AggregateBreakdown().Get(metrics.BB) / 3600
			if bbHours > 0 {
				row.CommMBPerHrWork = metrics.MB(res.Net.Bytes) / bbHours
			}
			out = append(out, row)
		}
	}
	return out
}

// RenderAblationAdaptiveReports prints the comparison.
func RenderAblationAdaptiveReports(w io.Writer, rows []AdaptiveRow) {
	fmt.Fprintln(w, "Ablation: fixed vs adaptive report flushing across granularities (8 processes)")
	fmt.Fprintln(w, "granularity  mode      reports  codes/report  MB per work-hour  optimum")
	for _, r := range rows {
		fmt.Fprintf(w, "%11.0fx  %-8s  %7d  %12.1f  %16.3f  %v\n",
			r.Factor, r.Mode, r.Reports, r.CodesPerReport, r.CommMBPerHrWork, r.OptimumOK)
	}
	fmt.Fprintln(w, "(at coarse granularity the fixed interval ships half-empty reports; the")
	fmt.Fprintln(w, " adaptive interval tracks the observed per-subproblem time — §7 future work)")
}
