package gb

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// Metric is one named number the benchmark prints. Bound is set on
// end-to-end metrics only: the share of the parent's median by which the
// metric may get worse before a change counts as a regression.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Doc    string
}

// WorkloadSpec names one workload and records why it exists.
type WorkloadSpec struct {
	Name string
	Why  string
}

// RunSeconds is how long one driver run measures.
const RunSeconds = 10

// DefaultSeed is the seed a run uses when none is given; README.md records
// the held-out seed.
const DefaultSeed = 1

// Workloads lists the seven workloads in the order they run.
var Workloads = []WorkloadSpec{
	{"sim-table1", "paper Table 1: 100 simulated procs replay 12001-node trees with frontier reports; the balanced core+ctree+kernel reference"},
	{"sim-table1-diff", "same trees under DiffGossip: digest reads and subtree pulls use ctree/protocol differently than frontier merges"},
	{"sim-faults", "24 of 32 procs crash (8 restart) under 5% loss/dup/reorder on 2501-node trees: recovery and table merges dominate"},
	{"sim-stress10k", "10000 procs, one 30-item knapsack that is never shared: kernel, mesh barrier, mailboxes, probes, termination broadcast"},
	{"sim-multi8", "8 staggered QAP-8 instances over 16 procs through the second sim driver, instance.Mux and the tagged header"},
	{"live-tcp", "QAP-9 on 4 nodes over loopback TCP: the only path through codec, CRC framing, sockets and goroutine scheduling"},
	{"live-tcp-crash", "same cluster, 3 of 4 nodes crash mid-solve: lone-survivor recovery, cold Locate replays, sends to dead peers"},
}

// EndToEnd is what a user of the system sees, on every workload. There is
// one bound per metric, so the workload on which the metric is least steady
// sets it: each is at least three times the widest spread (quartile distance
// over median, ten seeds) measured on any workload, capped at the driver's
// 0.25. Everything that contains wall-clock sits at the cap: this box
// repeats an identical single-threaded solve only within ±7% from process to
// process.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25, "everything before the first timed solve: input generation, sequential reference solves, one warm-up solve; median of the run's set-ups"},
	{"solve_wall_s", "s", "lower", 0.25, "host wall-clock per solve: median over cycles of the cycle's mean"},
	{"expansions_per_s", "1/s", "higher", 0.25, "expansions by all processes per host second, median over cycles"},
	{"exec_time_s", "s", "lower", 0.25, "the paper's execution time on the system's own clock: virtual time on sim-*, Result.Elapsed on live-*; mean over the cycle"},
	{"speedup_vs_seq", "x", "higher", 0.25, "sequential execution time / exec_time_s on the same clock (sim: sum of modeled node costs; live: measured sequential solve)"},
	{"work_ratio", "ratio", "lower", 0.08, "expansions by all processes / sequential expansions (tree size for replays)"},
	{"msgs_per_expansion", "ratio", "lower", 0.25, "messages sent / expansions"},
	{"wire_bytes_per_expansion", "B", "lower", 0.25, "payload bytes sent / expansions"},
	{"effort_ratio", "ratio", "lower", 0.1, "(expansions + messages sent) / sequential expansions: Dwork/Halpern/Waarts effort against fault-free sequential work"},
	{"allocs_per_solve", "count", "lower", 0.25, "MemStats.Mallocs delta per solve, median over cycles of the cycle's mean"},
	{"peak_rss_mb", "MB", "lower", 0.25, "ru_maxrss of the workload's process"},
}

// wireKinds are the message kinds the per-kind wire metrics break out.
var wireKinds = []string{"report", "table", "digest", "subtree_reply", "work_request", "work_grant"}

// PerLayer holds the single-layer metrics of the traced run. A metric that
// does not apply to a workload is printed as n/a and reported as 0.
var PerLayer = buildPerLayer()

func buildPerLayer() []Metric {
	ns := func(name, doc string) Metric { return Metric{Name: name, Unit: "ns", Better: "lower", Doc: doc} }
	m := []Metric{
		ns("code.encode_ns", "Code.EncodeInto per code of the recorded completion stream"),
		ns("code.decode_ns", "code.Decode per code"),
		ns("code.append_child_ns", "Code.AppendChild into owned scratch, per call"),

		ns("ctree.insert_ns", "Table.Insert per code, completion stream replayed into a recycled table"),
		ns("ctree.insertall_ns_per_code", "Table.InsertAll per code over the recorded report batches"),
		ns("ctree.merge_ns_per_code", "Table.Merge per frontier code of the merged table"),
		ns("ctree.codes_ns", "Table.Codes on an uncached half-built table"),
		ns("ctree.complement_ns", "Table.Complement(8) on the half-built table"),
		ns("ctree.digest_ns", "Table.Digest after one insert (incremental Merkle), per call"),
		ns("ctree.children_ns", "Table.Children at a stream prefix, per call"),
		ns("ctree.encode_ns_per_code", "Table.Encode per frontier code"),
		ns("ctree.decode_ns_per_code", "ctree.Decode per frontier code"),
		{"ctree.contraction_ratio", "ratio", "higher", 0, "codes inserted / Len() after half the completion stream"},
		{"ctree.allocs_per_insert", "count", "lower", 0, "heap allocations per Insert into a recycled table"},
		{"ctree.merge_wall_share", "ratio", "lower", 0, "estimated share of the real driver's processor time merging received codes: insertall_ns_per_code x codes received / solve wall"},

		ns("protocol.core.next_ns", "mean Core.Next span in the loopback harness"),
		ns("protocol.core.on_expanded_ns", "mean Core.OnExpanded span (self time excludes Sender/Expander callbacks)"),
		ns("protocol.core.handle_report_ns", "mean HandleMessage(Report) self time"),
		ns("protocol.core.handle_table_ns", "mean HandleMessage(TableMsg) self time"),
		ns("protocol.core.handle_work_request_ns", "mean HandleMessage(WorkRequest) self time"),
		ns("protocol.core.handle_work_grant_ns", "mean HandleMessage(WorkGrant) self time"),
		ns("protocol.core.handle_digest_ns", "mean HandleMessage(DigestReport) self time"),
		ns("protocol.core.handle_subtree_ns", "mean HandleMessage(SubtreeRequest|SubtreeReply) self time"),
		ns("protocol.core.flush_report_ns", "mean driver-initiated Core.FlushReport self time"),
		ns("protocol.core.starve_ns", "mean Core.Starve self time"),
		ns("protocol.core.plan_recovery_ns", "mean Core.PlanRecovery+Adopt self time"),
		{"protocol.core.self_share", "ratio", "lower", 0, "protocol.Core self time / traced harness solve wall"},

		{"protocol.reports_sent", "count", "lower", 0, "work reports (and digest reports) sent per solve"},
		{"protocol.report_compression", "ratio", "higher", 0, "completions covered by reports / codes carried (ReportedComps/ReportCodes)"},
		{"protocol.tables_sent", "count", "lower", 0, "full-table pushes per solve"},
		{"protocol.work_requests", "count", "lower", 0, "work requests sent per solve"},
		{"protocol.grant_ratio", "ratio", "higher", 0, "work grants / work requests on the wire"},
		{"protocol.recoveries", "count", "lower", 0, "subproblems re-created by complement recovery per solve"},
		{"protocol.peak_pool", "count", "lower", 0, "largest active-problem pool of any process"},

		ns("protocol.codec.encode_ns_per_kb", "protocol.Encode over the recorded message mix, per KB"),
		ns("protocol.codec.decode_ns_per_kb", "protocol.DecodeInstance over the recorded message mix, per KB"),
		ns("protocol.codec.inst_header_ns", "Encode+DecodeInstance of an instance-tagged WorkRequest: the tagged header path"),
	}
	for _, k := range wireKinds {
		m = append(m,
			Metric{"protocol.wire." + k + "_msgs", "count", "lower", 0, k + " messages sent per solve"},
			Metric{"protocol.wire." + k + "_bytes", "B", "lower", 0, k + " payload bytes sent per solve"})
	}
	m = append(m,
		Metric{"bnb.seq_expansions_per_s", "1/s", "higher", 0, "sequential bnb.SolveProblem expansions per second (code-driven inputs)"},
		ns("bnb.expander.outcome_ns", "Expander.Outcome on cached state, per call"),
		ns("bnb.expander.locate_cold_ns", "Expander.Locate of a recorded code on a fresh expander (replay from root)"),
		Metric{"bnb.expander.share", "ratio", "lower", 0, "share of processor time inside the Expander (harness) or Bound/Feasible/Branch (live)"},

		ns("sim.kernel.event_ns", "Kernel.After schedule to fire, per event"),
		ns("sim.network.send_deliver_ns", "Network.Send to handler, per message"),
		ns("sim.network.broadcast_range_ns_per_dst", "Network.BroadcastRange per destination on a 10000-node ring"),
		ns("sim.mesh.barrier_ns", "one lookahead window with one trivial event per shard at S=GOMAXPROCS"),
		Metric{"sim.mesh.parallel_speedup", "x", "higher", 0, "sim-stress10k solve wall at Shards=1 / at Shards=GOMAXPROCS"},
		ns("sim.ns_per_event", "solve wall / Result.Events"),
		Metric{"sim.events_per_s", "1/s", "higher", 0, "Result.Events per host second"},

		Metric{"dbnb.bb_pct", "%", "higher", 0, "virtual-time share spent expanding"},
		Metric{"dbnb.comm_pct", "%", "lower", 0, "virtual-time share handling messages"},
		Metric{"dbnb.contract_pct", "%", "lower", 0, "virtual-time share contracting tables"},
		Metric{"dbnb.lb_pct", "%", "lower", 0, "virtual-time share load balancing"},
		Metric{"dbnb.idle_pct", "%", "lower", 0, "virtual-time share idle"},
		Metric{"dbnb.term_detect_lag_s", "s", "lower", 0, "Result.Time - Result.FirstDetect, virtual seconds"},
		Metric{"metrics.storage_total_b", "B", "lower", 0, "sum of per-process peak table sizes"},
		Metric{"metrics.storage_redundant_b", "B", "lower", 0, "storage beyond one shared copy of the union"},

		ns("instance.mux.route_ns", "Mux.Route over 8 open instances, per call"),
		ns("instance.mux.next_ns", "Mux.Next over 8 starved cores, per call"),
		ns("instance.mux.open_reap_ns", "Mux.Open + Mux.Reap of one instance"),

		ns("live.tcp.send_ns", "caller-side TCPNetwork.Send during the traced solve, mean"),
		Metric{"live.tcp.msgs_per_s_64b", "1/s", "higher", 0, "loopback TCP, one sender one receiver, 64 B messages"},
		Metric{"live.tcp.mb_per_s_64b", "MB/s", "higher", 0, "payload rate of the same stream"},
		Metric{"live.tcp.msgs_per_s_16k", "1/s", "higher", 0, "loopback TCP, 16 KB messages"},
		Metric{"live.tcp.mb_per_s_16k", "MB/s", "higher", 0, "payload rate of the same stream"},
		Metric{"live.tcp.latency_p50_us", "us", "lower", 0, "send to inbox at half the saturation rate, median"},
		Metric{"live.tcp.latency_p99_us", "us", "lower", 0, "same stream, 99th percentile"},
		Metric{"live.mem.msgs_per_s", "1/s", "higher", 0, "in-memory Transport, 64 B messages"},
		Metric{"live.mem.latency_p50_us", "us", "lower", 0, "in-memory Transport send to inbox, median"},
		Metric{"live.net.send_share", "ratio", "lower", 0, "share of processor time inside Net.Send during the traced solve"},
		Metric{"live.net.dropped_share", "ratio", "lower", 0, "NetStats.Dropped / NetStats.Sent"},
		Metric{"live.net.to_dead_msgs", "count", "lower", 0, "Send calls addressed to a crashed node per traced solve"},
		Metric{"live.tcp.dials", "count", "lower", 0, "TCPNetwork.DialStats per solve"},

		ns("nemesis.verdict_ns", "Schedule.At on a 6-fault schedule, per call"),

		Metric{"trace.overhead_pct", "%", "lower", 0, "traced vs untraced wall of the same driver"},
		Metric{"trace.accounted_share", "ratio", "higher", 0, "sum of layer self times / traced solve wall"},
	)
	return m
}

// BenchmarkJSON renders BENCHMARK.json from the tables above, so the file
// the driver reads cannot drift from what the command prints.
func BenchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: RunSeconds,
	}
	for _, w := range Workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range EndToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range PerLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// CheckSpec verifies the tables against the limits the driver enforces on
// BENCHMARK.json.
func CheckSpec() error {
	if n := len(Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(s string) error {
		if !nameRE.MatchString(s) {
			return fmt.Errorf("bad name %q", s)
		}
		if seen[s] {
			return fmt.Errorf("name %q used twice", s)
		}
		seen[s] = true
		return nil
	}
	for _, w := range Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, list := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range list {
			if err := name(m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %s: better=%q", m.Name, m.Better)
			}
		}
	}
	for _, m := range EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		return fmt.Errorf("no setup_s metric")
	}
	return nil
}
