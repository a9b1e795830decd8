package exp

// The anti-entropy diff-gossip experiment (ISSUE 7): the same workload run
// with legacy full-frontier reports and with content-addressed diff gossip,
// measuring what actually crosses the wire. "Report-path bytes" counts every
// kind that exists to propagate completion state — legacy reports and table
// pushes, plus digests and subtree pulls in diff mode — and excludes the
// work-stealing kinds both modes need. The headline is the ratio: steady
// state, diff mode ships codes at most once plus fixed-size digests, where
// the legacy protocol re-ships entire frontiers on every probe.

import (
	"fmt"
	"io"
	"math/rand"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/dbnb"
	"gossipbnb/internal/protocol"
)

// DiffRow is one (scenario, mode) cell of the diff-gossip byte comparison.
type DiffRow struct {
	Scenario    string
	Mode        string // "frontier" or "diff"
	Time        float64
	Expanded    int
	ReportBytes int64 // completion-propagation kinds only
	TotalBytes  int64
	Msgs        int64
	OptimumOK   bool
}

// reportPathBytes sums the wire bytes of the completion-propagation kinds.
func reportPathBytes(res dbnb.Result) int64 {
	return res.Net.KindBytes[protocol.KindReport] +
		res.Net.KindBytes[protocol.KindTable] +
		res.Net.KindBytes[protocol.KindDigestReport] +
		res.Net.KindBytes[protocol.KindSubtreeRequest] +
		res.Net.KindBytes[protocol.KindSubtreeReply]
}

func diffRow(scenario, mode string, res dbnb.Result) DiffRow {
	return DiffRow{
		Scenario:    scenario,
		Mode:        mode,
		Time:        res.Time,
		Expanded:    res.Expanded,
		ReportBytes: reportPathBytes(res),
		TotalBytes:  res.Net.Bytes,
		Msgs:        res.Net.Sent,
		OptimumOK:   res.OptimumOK,
	}
}

// DiffBytes runs the three scenarios of the comparison:
//
//   - table1-100: the size-scaled Table 1 workload (8001 nodes, 3.47 s mean
//     cost) on 100 processes — the paper's steady-state regime, where most
//     processes starve and probe while tables grow to thousands of codes.
//   - stress-1000: a deep knapsack on 1000 processes — the scale tier,
//     dominated by starving processes chasing reports.
//   - wan-2x50: the Table 1 workload on two 50-process clusters joined by a
//     high-latency, low-bandwidth link — the regime the byte reduction is
//     for, where every full frontier crossing the WAN link costs real time.
func DiffBytes(seed int64) []DiffRow {
	var rows []DiffRow
	run := func(scenario string, f func(diff bool) dbnb.Result) {
		rows = append(rows,
			diffRow(scenario, "frontier", f(false)),
			diffRow(scenario, "diff", f(true)))
	}

	w := ScaledLargeWorkload(seed, 8001)
	run("table1-100", func(diff bool) dbnb.Result {
		cfg := baseConfig(w, 100, seed)
		cfg.DiffGossip = diff
		return dbnb.Run(w.Tree, cfg)
	})

	k := bnb.RandomKnapsack(rand.New(rand.NewSource(7)), 30)
	ref := bnb.SolveProblem(k)
	run("stress-1000", func(diff bool) dbnb.Result {
		return dbnb.RunProblemRef(k, ref, dbnb.Config{
			Procs: 1000, Seed: 7, Prune: true, DiffGossip: diff,
		})
	})

	// Two 50-process clusters: 1 ms + 1 Gb/s within a cluster, 80 ms +
	// 10 Mb/s across. LinkLatency clamps the run to one shard.
	run("wan-2x50", func(diff bool) dbnb.Result {
		cfg := baseConfig(w, 100, seed)
		cfg.DiffGossip = diff
		cfg.LinkLatency = func(from, to, bytes int) float64 {
			if (from < 50) == (to < 50) {
				return 0.001 + float64(bytes)/125e6
			}
			return 0.080 + float64(bytes)/1.25e6
		}
		return dbnb.Run(w.Tree, cfg)
	})
	return rows
}

// RenderDiffBytes prints the before/after table plus the per-scenario ratio,
// with the report-path bytes exact: the runs are seeded, so the counts are
// machine-independent and the golden pins them to the byte.
func RenderDiffBytes(w io.Writer, rows []DiffRow) {
	fmt.Fprintf(w, "%-12s %-9s %10s %9s %12s %12s %9s %4s\n",
		"scenario", "mode", "exec(s)", "expanded", "report-KB", "total-KB", "msgs", "opt")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-9s %10.1f %9d %12.1f %12.1f %9d %4v\n",
			r.Scenario, r.Mode, r.Time, r.Expanded,
			float64(r.ReportBytes)/1024, float64(r.TotalBytes)/1024, r.Msgs, r.OptimumOK)
	}
	fmt.Fprintln(w)
	for i := 0; i+1 < len(rows); i += 2 {
		leg, dif := rows[i], rows[i+1]
		fmt.Fprintf(w, "%-12s report-path bytes %d -> %d (%.2fx), total %.2fx\n",
			leg.Scenario, leg.ReportBytes, dif.ReportBytes,
			float64(leg.ReportBytes)/float64(dif.ReportBytes),
			float64(leg.TotalBytes)/float64(dif.TotalBytes))
	}
}
