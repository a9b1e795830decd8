package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestFigure3Shape(t *testing.T) {
	rows := Figure3(1)
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Procs != i+1 {
			t.Errorf("row %d procs = %d", i, r.Procs)
		}
		if !r.OptimumOK {
			t.Errorf("procs=%d wrong optimum", r.Procs)
		}
	}
	// The paper's shape: execution time falls with processors, and overhead
	// share rises (36% at 8 processors in the paper).
	if rows[7].ExecSeconds >= rows[0].ExecSeconds {
		t.Errorf("no speedup: 1 proc %.2fs vs 8 procs %.2fs",
			rows[0].ExecSeconds, rows[7].ExecSeconds)
	}
	if rows[7].OverheadPctOfTotal <= rows[1].OverheadPctOfTotal {
		t.Errorf("overhead share should grow with processors: 2p=%.1f%% 8p=%.1f%%",
			rows[1].OverheadPctOfTotal, rows[7].OverheadPctOfTotal)
	}
	if rows[7].OverheadPctOfTotal < 10 {
		t.Errorf("8-proc overhead %.1f%% implausibly small for 0.01 s granularity",
			rows[7].OverheadPctOfTotal)
	}
	var buf bytes.Buffer
	RenderFigure3(&buf, rows)
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Error("render missing title")
	}
}

func TestScaledTable1Shape(t *testing.T) {
	// The full Table 1 runs in cmd/figures; shape-check on a scaled tree.
	w := ScaledLargeWorkload(1, 4001)
	r10 := Measure(w, 10, 1)
	r50 := Measure(w, 50, 1)
	if !r10.OptimumOK || !r50.OptimumOK {
		t.Fatalf("wrong optimum: %+v %+v", r10, r50)
	}
	if r50.ExecSeconds >= r10.ExecSeconds {
		t.Errorf("no speedup from 10 to 50 procs: %.0fs vs %.0fs",
			r10.ExecSeconds, r50.ExecSeconds)
	}
	if r10.BBPct < 80 {
		t.Errorf("BB share at 10 procs = %.1f%%, want ≥80%% (coarse granularity)", r10.BBPct)
	}
	if r50.CommMBPerHrProc <= r10.CommMBPerHrProc {
		t.Errorf("comm per processor should rise with processors: %.2f vs %.2f",
			r10.CommMBPerHrProc, r50.CommMBPerHrProc)
	}
	if r50.StorageTotal <= r10.StorageTotal {
		t.Errorf("storage should grow with processors: %d vs %d",
			r10.StorageTotal, r50.StorageTotal)
	}
	var buf bytes.Buffer
	RenderTable1(&buf, []Row{r10, r50})
	if !strings.Contains(buf.String(), "Table 1") {
		t.Error("render missing title")
	}
}

func TestFigure5NoFailures(t *testing.T) {
	g := Figure5(1)
	if !g.Result.Terminated || !g.Result.OptimumOK {
		t.Fatalf("%+v", g.Result)
	}
	if g.Result.Redundant != 0 {
		t.Errorf("failure-free tiny run has %d redundant expansions", g.Result.Redundant)
	}
	if g.Log.Len() == 0 {
		t.Error("no trace recorded")
	}
	var buf bytes.Buffer
	RenderGantt(&buf, "t", g)
	if !strings.Contains(buf.String(), "p0") {
		t.Error("gantt missing process rows")
	}
}

func TestFigure6SurvivorRecovers(t *testing.T) {
	g := Figure6(1)
	if !g.Result.Terminated || !g.Result.OptimumOK {
		t.Fatalf("survivor failed: %+v", g.Result)
	}
	// Two processes must be dead, and the run must take longer than the
	// failure-free run (lost work is redone).
	base := Figure5(1)
	if g.Result.Time <= base.Result.Time {
		t.Errorf("crash run (%.2fs) not slower than failure-free (%.2fs)",
			g.Result.Time, base.Result.Time)
	}
	var buf bytes.Buffer
	RenderGantt(&buf, "t", g)
	if !strings.Contains(buf.String(), "X") {
		t.Error("gantt shows no dead processes")
	}
}

func TestFaultToleranceMatrix(t *testing.T) {
	rows := FaultTolerance(1)
	if len(rows) == 0 {
		t.Fatal("empty matrix")
	}
	for _, r := range rows {
		if !r.Terminated {
			t.Errorf("scenario %+v did not terminate", r)
		}
		if !r.OptimumOK {
			t.Errorf("scenario %+v lost solution quality", r)
		}
	}
	var buf bytes.Buffer
	RenderFaultTolerance(&buf, rows)
	if !strings.Contains(buf.String(), "crash") {
		t.Error("render missing header")
	}
}

func TestGranularityShape(t *testing.T) {
	rows := Granularity(1)
	if len(rows) < 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.OptimumOK {
			t.Errorf("factor %.2f wrong optimum", r.Factor)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.BBPct <= first.BBPct {
		t.Errorf("load balance should improve with coarser granularity: %.1f%% -> %.1f%%",
			first.BBPct, last.BBPct)
	}
	var buf bytes.Buffer
	RenderGranularity(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestDIBComparisonShape(t *testing.T) {
	rows := DIBComparison(1)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.OursTerminated || !r.OursOptimumOK {
			t.Errorf("our algorithm failed scenario %q", r.Scenario)
		}
	}
	// DIB must fail exactly the scenarios that crash process 0.
	for _, r := range rows {
		rootDies := strings.Contains(r.Scenario, "process 0") || strings.Contains(r.Scenario, "all but")
		if rootDies && r.DIBTerminated {
			t.Errorf("DIB survived root failure in %q", r.Scenario)
		}
		if !rootDies && !r.DIBTerminated {
			t.Errorf("DIB failed recoverable scenario %q", r.Scenario)
		}
	}
	var buf bytes.Buffer
	RenderDIBComparison(&buf, rows)
	if !strings.Contains(buf.String(), "DIB") {
		t.Error("render missing header")
	}
}

func TestCentralizedShape(t *testing.T) {
	rows := Centralized(1)
	if len(rows) < 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	last := rows[len(rows)-1]
	if last.CentralUtilization < 0.5 {
		t.Errorf("manager utilization at %d workers = %.2f; bottleneck not visible",
			last.Procs, last.CentralUtilization)
	}
	var buf bytes.Buffer
	RenderCentralized(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestMembershipShape(t *testing.T) {
	rows := Membership(1)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	// Per-member load must not grow materially with group size.
	if last.MsgsPerSec > 2*first.MsgsPerSec {
		t.Errorf("per-member load grew with group size: %.2f -> %.2f",
			first.MsgsPerSec, last.MsgsPerSec)
	}
	// The caption's claim: flat within 10 % from 8 to 64 members.
	lo, hi := first.MsgsPerSec, first.MsgsPerSec
	for _, r := range rows {
		lo, hi = min(lo, r.MsgsPerSec), max(hi, r.MsgsPerSec)
	}
	if hi > 1.1*lo {
		t.Errorf("per-member load spans %.2f to %.2f msgs/s, more than the 10 %% the caption allows", lo, hi)
	}
	for _, r := range rows {
		if r.DetectSecs <= 0 {
			t.Errorf("no failure detection at %d members", r.Members)
		}
	}
	var buf bytes.Buffer
	RenderMembership(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestAblationReportPolicyShape(t *testing.T) {
	rows := AblationReportPolicy(1)
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Communication volume must rise with fanout at fixed batch.
	byKey := map[[2]int]ReportRow{}
	for _, r := range rows {
		if !r.OptimumOK {
			t.Errorf("c=%d m=%d wrong optimum", r.Batch, r.Fanout)
		}
		byKey[[2]int{r.Batch, r.Fanout}] = r
	}
	if byKey[[2]int{8, 4}].CommMB <= byKey[[2]int{8, 1}].CommMB {
		t.Errorf("fanout 4 should cost more communication than fanout 1: %.3f vs %.3f",
			byKey[[2]int{8, 4}].CommMB, byKey[[2]int{8, 1}].CommMB)
	}
	var buf bytes.Buffer
	RenderAblationReportPolicy(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestAblationRecoveryShape(t *testing.T) {
	rows := AblationRecoveryPatience(1)
	if len(rows) != 18 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if !r.OptimumOK {
			t.Errorf("procs=%d patience=%d quiet=%.0f failed", r.Procs, r.Patience, r.Quiet)
		}
		if want := []int{4, 32}[i/9]; r.Procs != want {
			t.Errorf("row %d runs %d processes, want %d", i, r.Procs, want)
		}
		if r.WorkRatio < 1 || r.Effort < r.WorkRatio {
			t.Errorf("row %d: work_ratio %.3f, effort %.3f", i, r.WorkRatio, r.Effort)
		}
		if r.Plans == 0 && r.Recoveries > 0 {
			t.Errorf("row %d: %d regions re-created by %d plans", i, r.Recoveries, r.Plans)
		}
	}
	var buf bytes.Buffer
	RenderAblationRecoveryPatience(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestAblationCompressionShape(t *testing.T) {
	rows := AblationCompression(1)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]CompressRow{}
	for _, r := range rows {
		byKey[fmt.Sprintf("%s/%d", r.Rule, r.Batch)] = r
	}
	// Depth-first's subtree locality must compress far better than
	// best-first at the same batch size — the paper's loaded-processor
	// effect, with locality as the mechanism.
	for _, batch := range []int{4, 8, 16} {
		bf := byKey[fmt.Sprintf("best-first/%d", batch)]
		df := byKey[fmt.Sprintf("depth-first/%d", batch)]
		if df.CompressionRate <= bf.CompressionRate {
			t.Errorf("batch %d: depth-first %.2fx not better than best-first %.2fx",
				batch, df.CompressionRate, bf.CompressionRate)
		}
	}
	if df := byKey["depth-first/8"]; df.CompressionRate < 1.5 {
		t.Errorf("depth-first compression = %.2fx, want ≥1.5x", df.CompressionRate)
	}
	var buf bytes.Buffer
	RenderAblationCompression(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestAblationSelectRuleShape(t *testing.T) {
	rows := AblationSelectRule(1)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var bf, df SelectRow
	for _, r := range rows {
		if !r.OptimumOK {
			t.Errorf("%s failed", r.Rule)
		}
		if r.Rule == "best-first" {
			bf = r
		} else {
			df = r
		}
	}
	// The classic trade-off: best-first finds strong incumbents sooner and
	// expands fewer nodes; depth-first holds far smaller pools.
	if bf.Expanded > df.Expanded {
		t.Errorf("best-first expanded %d > depth-first %d", bf.Expanded, df.Expanded)
	}
	if df.PeakPool >= bf.PeakPool {
		t.Errorf("depth-first peak pool %d not smaller than best-first %d",
			df.PeakPool, bf.PeakPool)
	}
}

func TestAblationAdaptiveShape(t *testing.T) {
	rows := AblationAdaptiveReports(1)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]AdaptiveRow{}
	for _, r := range rows {
		if !r.OptimumOK {
			t.Errorf("%s at %gx failed", r.Mode, r.Factor)
		}
		byKey[fmt.Sprintf("%s/%g", r.Mode, r.Factor)] = r
	}
	// At the coarsest granularity, adaptive flushing must ship fewer
	// reports with fuller batches than the fixed interval.
	fixed, adaptive := byKey["fixed/128"], byKey["adaptive/128"]
	if adaptive.Reports >= fixed.Reports {
		t.Errorf("adaptive sent %d reports, fixed %d; want fewer", adaptive.Reports, fixed.Reports)
	}
	if adaptive.CodesPerReport <= fixed.CodesPerReport {
		t.Errorf("adaptive batches %.1f codes/report, fixed %.1f; want fuller",
			adaptive.CodesPerReport, fixed.CodesPerReport)
	}
	// At baseline granularity the two modes should behave alike.
	f1, a1 := byKey["fixed/1"], byKey["adaptive/1"]
	if a1.Reports > f1.Reports*3/2+5 {
		t.Errorf("adaptive at 1x sent far more reports: %d vs %d", a1.Reports, f1.Reports)
	}
}

func TestStaticFigures(t *testing.T) {
	var buf bytes.Buffer
	Figure1(&buf)
	if !strings.Contains(buf.String(), "(<x1,0>,<x2,1>,<x5,0>)") {
		t.Error("figure 1 missing the paper's example code")
	}
	buf.Reset()
	Figure2(&buf)
	out := buf.String()
	if !strings.Contains(out, "(<x1,0>)") {
		t.Error("figure 2 contraction result missing")
	}
	if !strings.Contains(out, "(<x1,1>)") {
		t.Error("figure 2 complement missing")
	}
}

func TestDeterministicExperiments(t *testing.T) {
	a := Figure3(3)
	b := Figure3(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("figure 3 row %d differs between identical runs", i)
		}
	}
}
