package exp

import (
	"fmt"
	"io"
	"math"

	"gossipbnb/internal/central"
	"gossipbnb/internal/dbnb"
	"gossipbnb/internal/dib"
	"gossipbnb/internal/member"
	"gossipbnb/internal/protocol"
	"gossipbnb/internal/sim"
)

// --- DIB comparison (§5.5) -------------------------------------------------------

// DIBRow is one scenario of the DIB-vs-paper comparison.
type DIBRow struct {
	Scenario       string
	OursTerminated bool
	OursOptimumOK  bool
	OursRedundant  int
	OursTime       float64
	DIBTerminated  bool
	DIBOptimumOK   bool
	DIBRedundant   int
	DIBTime        float64
}

// DIBComparison runs both algorithms on the same workload under the same
// failure scenarios. The defining difference (§5.5): DIB needs a reliable
// root machine; the paper's algorithm survives the loss of any processes,
// including the one that started with the original problem.
func DIBComparison(seed int64) []DIBRow {
	w := TinyWorkload(seed)
	type scenario struct {
		name    string
		crashes []dbnb.Crash
	}
	base := dbnb.Run(w.Tree, baseConfig(w, 4, seed))
	mid := 0.5 * base.Time
	scenarios := []scenario{
		{name: "no failures"},
		{name: "one worker crashes", crashes: []dbnb.Crash{{Time: mid, Node: 2}}},
		{name: "two workers crash", crashes: []dbnb.Crash{{Time: mid, Node: 2}, {Time: mid + 0.2, Node: 3}}},
		{name: "process 0 crashes (DIB root)", crashes: []dbnb.Crash{{Time: mid, Node: 0}}},
		{name: "all but process 3 crash", crashes: []dbnb.Crash{
			{Time: mid, Node: 0}, {Time: mid + 0.1, Node: 1}, {Time: mid + 0.2, Node: 2}}},
	}
	var out []DIBRow
	for _, sc := range scenarios {
		cfg := baseConfig(w, 4, seed)
		cfg.Crashes = sc.crashes
		ours := dbnb.Run(w.Tree, cfg)

		dcfg := dib.Config{
			Procs: 4, Seed: seed, RedoTimeout: 10,
			MaxTime: 50 * (base.Time + 10),
		}
		for _, c := range sc.crashes {
			dcfg.Crashes = append(dcfg.Crashes, dib.Crash{Time: c.Time, Node: c.Node})
		}
		theirs := dib.Run(w.Tree, dcfg)

		out = append(out, DIBRow{
			Scenario:       sc.name,
			OursTerminated: ours.Terminated, OursOptimumOK: ours.OptimumOK,
			OursRedundant: ours.Redundant, OursTime: ours.Time,
			DIBTerminated: theirs.Terminated, DIBOptimumOK: theirs.OptimumOK,
			DIBRedundant: theirs.Redundant, DIBTime: theirs.Time,
		})
	}
	return out
}

// RenderDIBComparison prints the side-by-side table.
func RenderDIBComparison(w io.Writer, rows []DIBRow) {
	fmt.Fprintln(w, "Comparison with DIB (Finkel & Manber), 4 processes, same crash schedules")
	fmt.Fprintln(w, "scenario                          ours: term opt  red  time | DIB: term opt  red  time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-32s  %10v %3v %4d %5.1f |     %4v %3v %4d %5.1f\n",
			r.Scenario,
			r.OursTerminated, r.OursOptimumOK, r.OursRedundant, r.OursTime,
			r.DIBTerminated, r.DIBOptimumOK, r.DIBRedundant, r.DIBTime)
	}
	fmt.Fprintln(w, "(a DIB row with term=false hit its time budget: the reliable-root assumption was violated)")
}

// --- centralized baseline (§3) ------------------------------------------------------

// CentralRow compares the centralized manager-worker with the decentralized
// algorithm at one processor count.
type CentralRow struct {
	Procs              int
	CentralTime        float64
	CentralUtilization float64
	DecentralTime      float64
}

// Centralized sweeps worker counts on a fine-granularity problem, where the
// single manager saturates while the decentralized algorithm keeps scaling.
func Centralized(seed int64) []CentralRow {
	w := SmallWorkload(seed)
	var out []CentralRow
	for _, procs := range []int{2, 4, 8, 16, 32} {
		c := central.Run(w.Tree, central.Config{
			Workers: procs, Seed: seed, ServiceTime: 2e-3,
		})
		d := dbnb.Run(w.Tree, baseConfig(w, procs, seed))
		out = append(out, CentralRow{
			Procs:              procs,
			CentralTime:        c.Time,
			CentralUtilization: c.ManagerUtilization,
			DecentralTime:      d.Time,
		})
	}
	return out
}

// RenderCentralized prints the comparison.
func RenderCentralized(w io.Writer, rows []CentralRow) {
	fmt.Fprintln(w, "Centralized manager-worker vs decentralized, small problem (0.01 s/node)")
	fmt.Fprintln(w, "procs  central(s)  mgr-util  decentral(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%5d  %10.2f  %7.0f%%  %12.2f\n",
			r.Procs, r.CentralTime, 100*r.CentralUtilization, r.DecentralTime)
	}
	fmt.Fprintln(w, "(manager utilization near 100% marks the central bottleneck of §3)")
}

// --- membership under churn (§5.2, §7 future work) -----------------------------------

// MemberRow is one churn configuration.
type MemberRow struct {
	Members    int
	MsgsPerSec float64 // protocol messages per member per second
	DetectSecs float64 // mean crash-detection latency
}

// Membership measures the §5.2 detector standalone — the one both runtimes
// run — over the simulated network: per-member network load as the group
// grows, and how long after a crash its peers exclude it. Every member boots
// knowing the group, as in both runtimes, so the load is the heartbeat
// gossip alone.
func Membership(seed int64) []MemberRow {
	var out []MemberRow
	for _, n := range []int{8, 16, 32, 64} {
		k := sim.New(seed)
		nw := sim.NewNetwork(k, sim.PaperLatency())
		cfg := member.Config{SuspectAfter: 3, ExcludeAfter: 8, Fanout: 2}
		victim := sim.NodeID(n - 1)
		crashAt := math.Inf(1)
		var detected []float64
		for i := 0; i < n; i++ {
			id := sim.NodeID(i)
			m := member.New(protocol.NodeID(id), cfg, member.Deps{
				Send: func(to protocol.NodeID, msg protocol.Msg) { nw.Send(id, sim.NodeID(to), msg) },
				Rand: k.Rand().Intn,
				On: func(p protocol.NodeID, t member.Transition) {
					if sim.NodeID(p) == victim && t == member.Excluded {
						detected = append(detected, k.Now()-crashAt)
					}
				},
			}, 0)
			for p := 0; p < n; p++ {
				m.Learn(protocol.NodeID(p), 0)
			}
			nw.Register(id, func(from sim.NodeID, msg sim.Message) {
				m.Heard(protocol.NodeID(from), k.Now())
				if hb, ok := msg.(protocol.Heartbeat); ok {
					m.Gossip(hb, k.Now())
				}
			})
			var round func()
			round = func() {
				if !nw.Crashed(id) {
					k.At(m.Tick(k.Now()), round)
				}
			}
			round()
		}
		k.Run(60)
		// Crash the highest-numbered member; measure mean detection latency.
		crashAt = k.Now()
		nw.Crash(victim)
		k.Run(crashAt + 120)
		row := MemberRow{Members: n}
		row.MsgsPerSec = float64(nw.Stats().Sent) / k.Now() / float64(n)
		if len(detected) > 0 {
			sum := 0.0
			for _, d := range detected {
				sum += d
			}
			row.DetectSecs = sum / float64(len(detected))
		}
		out = append(out, row)
	}
	return out
}

// RenderMembership prints the churn table.
func RenderMembership(w io.Writer, rows []MemberRow) {
	fmt.Fprintln(w, "Membership protocol: load and failure-detection latency vs group size")
	fmt.Fprintln(w, "members  msgs/member/s  mean detect(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%7d  %13.2f  %14.1f\n", r.Members, r.MsgsPerSec, r.DetectSecs)
	}
	fmt.Fprintln(w, "(per-member load stays flat with group size — §5.2 advantage 1)")
}
