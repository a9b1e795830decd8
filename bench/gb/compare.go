package gb

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// Bounds reads the end-to-end regression bounds from a BENCHMARK.json; with
// an empty path (or a missing file) it returns the compiled-in ones.
func Bounds(path string) (map[string]Metric, error) {
	out := map[string]Metric{}
	for _, m := range EndToEnd {
		out[m.Name] = m
	}
	if path == "" {
		return out, nil
	}
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return out, nil
	}
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range doc.EndToEnd {
		out[m.Name] = Metric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
	}
	return out, nil
}

// Compare prints one row per (workload, end-to-end metric) with both
// medians, how much worse b is than a, and the bound. A row is a regression
// when b's median is worse than a's by more than the bound; it is unresolved
// instead when either file's own spread exceeds the bound and b's runs do not
// all read better than a's. It returns how many rows regressed, counting a
// higher failed share as one.
func Compare(w io.Writer, a, b *File, bounds map[string]Metric) int {
	regressions := 0
	fmt.Fprintf(w, "%-16s %-26s %12s %12s %8s %6s  %s\n", "workload", "metric", a.Label, b.Label, "worse", "bound", "verdict")
	for _, wl := range Workloads {
		wa, okA := a.Workloads[wl.Name]
		wb, okB := b.Workloads[wl.Name]
		if !okA || !okB {
			continue
		}
		for _, m := range EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			bm := bounds[m.Name]
			worse := 0.0
			if sa.Median != 0 {
				worse = (sb.Median - sa.Median) / sa.Median
				if bm.Better == "higher" {
					worse = -worse
				}
			}
			verdict := "ok"
			switch {
			case (sa.Spread() > bm.Bound || sb.Spread() > bm.Bound) && !allBetter(sa, sb, bm.Better):
				verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%%)", 100*sa.Spread(), 100*sb.Spread())
			case worse > bm.Bound:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "%-16s %-26s %12.5g %12.5g %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, sa.Median, sb.Median, 100*worse, 100*bm.Bound, verdict)
		}
		fa, fb := failedShare(wa), failedShare(wb)
		verdict := "ok"
		if fb > fa {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-16s %-26s %12.5g %12.5g %8s %6s  %s\n", wl.Name, "failed_share", fa, fb, "", "0%", verdict)
	}
	return regressions
}

func failedShare(w WorkloadResult) float64 {
	return float64(w.Failed) / float64(max(w.Attempted, 1))
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b Stat, better string) bool {
	if len(a.Values) == 0 || len(b.Values) == 0 {
		return false
	}
	if better == "higher" {
		return slices.Min(b.Values) > slices.Max(a.Values)
	}
	return slices.Max(b.Values) < slices.Min(a.Values)
}
