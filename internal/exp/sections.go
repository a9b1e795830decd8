package exp

import "io"

// Section is one block of the evaluation as cmd/figures prints it under an
// "=== Title ===" heading. Key selects it on the command line and names its
// golden file, testdata/figures/<Key>.txt, which holds exactly what Render
// writes at seed 1 in quick mode.
type Section struct {
	Key    string
	Title  string
	Render func(w io.Writer, r *Runner)
}

// Runner is one regeneration: the seed, the quick switch, and the large
// problem's measured rows, so Table 1 and Figure 4 run each processor count
// once between them.
type Runner struct {
	Seed  int64
	Quick bool

	large *Workload
	rows  map[int]Row
}

// Table1Procs are the processor counts of the paper's Table 1.
var Table1Procs = []int{10, 30, 50, 70, 100}

// figure4Procs are the processor counts of the paper's Figure 4.
var figure4Procs = []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

// largeRows measures the large problem (Table 1 / Figure 4: ≈79,600 nodes,
// 3.47 s mean cost) at each processor count not measured before.
func (r *Runner) largeRows(procs []int) []Row {
	if r.large == nil {
		w := LargeWorkload(r.Seed)
		r.large, r.rows = &w, map[int]Row{}
	}
	out := make([]Row, len(procs))
	for i, p := range procs {
		row, ok := r.rows[p]
		if !ok {
			row = measure(*r.large, p, r.Seed)
			r.rows[p] = row
		}
		out[i] = row
	}
	return out
}

// Sections lists every section in the order cmd/figures -all prints them.
func Sections() []Section {
	return []Section{
		{"fig1", "Figure 1", func(w io.Writer, _ *Runner) { Figure1(w) }},
		{"fig2", "Figure 2", func(w io.Writer, _ *Runner) { Figure2(w) }},
		{"fig3", "Figure 3", func(w io.Writer, r *Runner) { RenderFigure3(w, Figure3(r.Seed)) }},
		{"table1", "Table 1", func(w io.Writer, r *Runner) { RenderTable1(w, r.largeRows(Table1Procs)) }},
		{"fig4", "Figure 4", func(w io.Writer, r *Runner) {
			procs := figure4Procs
			if r.Quick {
				procs = Table1Procs
			}
			RenderFigure4(w, r.largeRows(procs))
		}},
		{"fig5", "Figure 5", func(w io.Writer, r *Runner) {
			RenderGantt(w, "Figure 5: very small problem, 3 processors, no failures", Figure5(r.Seed))
		}},
		{"fig6", "Figure 6", func(w io.Writer, r *Runner) {
			RenderGantt(w, "Figure 6: same problem, two processors crash at ~85%; the survivor recovers", Figure6(r.Seed))
		}},
		{"gran", "Granularity sweep", func(w io.Writer, r *Runner) { RenderGranularity(w, Granularity(r.Seed)) }},
		{"ft", "Fault tolerance", func(w io.Writer, r *Runner) { RenderFaultTolerance(w, FaultTolerance(r.Seed)) }},
		{"dib", "DIB comparison", func(w io.Writer, r *Runner) { RenderDIBComparison(w, DIBComparison(r.Seed)) }},
		{"central", "Centralized baseline", func(w io.Writer, r *Runner) { RenderCentralized(w, Centralized(r.Seed)) }},
		{"member", "Membership protocol", func(w io.Writer, r *Runner) { RenderMembership(w, Membership(r.Seed)) }},
		{"diffbytes", "Diff gossip: wire bytes", func(w io.Writer, r *Runner) { RenderDiffBytes(w, DiffBytes(r.Seed)) }},
		{"ablation-report", "Ablation: report policy", func(w io.Writer, r *Runner) {
			RenderAblationReportPolicy(w, AblationReportPolicy(r.Seed))
		}},
		{"ablation-recovery", "Ablation: recovery trigger", func(w io.Writer, r *Runner) {
			RenderAblationRecoveryPatience(w, AblationRecoveryPatience(r.Seed))
		}},
		{"ablation-compress", "Ablation: report compression", func(w io.Writer, r *Runner) {
			RenderAblationCompression(w, AblationCompression(r.Seed))
		}},
		{"ablation-select", "Ablation: selection rule", func(w io.Writer, r *Runner) {
			RenderAblationSelectRule(w, AblationSelectRule(r.Seed))
		}},
		{"ablation-adaptive", "Ablation: adaptive reports", func(w io.Writer, r *Runner) {
			RenderAblationAdaptiveReports(w, AblationAdaptiveReports(r.Seed))
		}},
	}
}
