package gb

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The traced run produces the per-layer numbers from three sources, all in
// this package: the real driver run with and without the outside-in wrappers
// of tracednet.go (workloads whose driver takes a Problem or a Net), the
// loopback harness with a span around every Core call, and the layer
// micro-drivers replaying the streams the harness recorded. The budget is
// split so a traced run costs about what an untraced one does.
const (
	driverShare  = 0.3  // of --seconds: real-driver solves
	harnessShare = 0.15 // harness traced/untraced pairs
	// microDur and microReps scale with --seconds; at the driver's 10 s a
	// measurement lasts 50 ms and the median is over 3, which keeps a traced
	// run inside the driver's time cap. From 20 s up the median is over 5.
	microDurPer10s = 50 * time.Millisecond
)

func microFor(seconds float64) micro {
	d := time.Duration(float64(microDurPer10s) * seconds / 10)
	d = max(time.Millisecond, min(d, 200*time.Millisecond))
	reps := 3
	if seconds >= 20 {
		reps = 5
	}
	return micro{dur: d, reps: reps}
}

func runTraced(w *Workload, o Options) (*Result, error) {
	ins := w.Setup(o.Seed, o.Sizes)
	g := &gate{}
	vals := map[string]float64{}
	samples := map[string]int{}
	procs := float64(runtime.GOMAXPROCS(0))

	// --- the real driver: counts, and wrapper overhead where it can be wrapped.
	tr := &liveTrace{rec: NewRecorder()}
	var plain, traced []Solve
	var toDead int64
	g.solve(w.Name+" warm-up", ins[0].Run(nil))
	for start := time.Now(); ; {
		in := ins[len(plain)%len(ins)]
		if w.Live {
			in.measureSeq()
		}
		sv := in.Run(nil)
		g.solve(fmt.Sprintf("%s untraced solve %d", w.Name, len(plain)), sv)
		plain = append(plain, sv)
		if w.Wrapped {
			tr.begin()
			sv = in.Run(tr)
			tr.end()
			toDead += tr.toDead.Load()
			g.solve(fmt.Sprintf("%s traced solve %d", w.Name, len(traced)), sv)
			traced = append(traced, sv)
		}
		if time.Since(start).Seconds() > driverShare*o.Seconds {
			break
		}
	}
	layerMeans(vals, samples, plain)
	var wall float64
	var events uint64
	for _, sv := range plain {
		wall += sv.Wall
		events += sv.Events
	}
	if events > 0 {
		vals["sim.ns_per_event"] = 1e9 * wall / float64(events)
		vals["sim.events_per_s"] = float64(events) / wall
		samples["sim.ns_per_event"], samples["sim.events_per_s"] = len(plain), len(plain)
	}
	plainWall := medianOf(plain, func(s Solve) float64 { return s.Wall })
	driverStats := SelfTimes(tr.rec.Spans())
	if w.Wrapped {
		tracedWall := medianOf(traced, func(s Solve) float64 { return s.Wall })
		vals["trace.overhead_pct"] = 100 * (tracedWall - plainWall) / plainWall
		samples["trace.overhead_pct"] = len(traced)
	}
	if w.Live {
		var send SpanStat
		for name, st := range driverStats {
			if strings.HasPrefix(name, "live.net.send/") {
				send.Count += st.Count
				send.Total += st.Total
			}
		}
		cpu := float64(driverStats["solve"].Total) * procs
		vals["live.tcp.send_ns"] = float64(send.Total) / float64(max(send.Count, 1))
		vals["live.net.send_share"] = float64(send.Total) / cpu
		vals["bnb.expander.share"] = float64(driverStats["bnb.subproblem"].Total) / cpu
		vals["live.net.to_dead_msgs"] = float64(toDead) / float64(len(traced))
		samples["live.tcp.send_ns"] = send.Count
	}

	// --- the loopback harness: core self times, and the recorded streams.
	hcfg := w.Harness(ins[0], o.Sizes)
	hcfg.seed = o.Seed
	// The recorder is drained into hstats after every traced run, so each
	// run appends into the same, already grown backing array: a recorder
	// that kept growing made the traced runs pay for its reallocation.
	hrec := NewRecorder()
	hstats := map[string]SpanStat{}
	drain := func() {
		for name, st := range SelfTimes(hrec.Spans()) {
			acc := hstats[name]
			acc.Count, acc.Total, acc.Self = acc.Count+st.Count, acc.Total+st.Total, acc.Self+st.Self
			hstats[name] = acc
		}
		hrec.Reset()
	}
	hrec.NextSolve()
	first := runHarness(hcfg, hrec, true)
	g.attempted++
	if !first.OK {
		g.fail(w.Name + ": loopback harness did not terminate at the sequential optimum")
	}
	var firstSpans []Span
	if o.TraceOut != "" {
		firstSpans = append(firstSpans, hrec.Spans()...)
	}
	drain()
	var hPlain, hTraced []float64
	for start := time.Now(); ; {
		// Collect before each timed run, or the garbage of draining the
		// previous traced run is charged to the plain run that follows it.
		runtime.GC()
		t0 := time.Now()
		runHarness(hcfg, nil, false)
		hPlain = append(hPlain, time.Since(t0).Seconds())
		hrec.NextSolve()
		runtime.GC()
		t0 = time.Now()
		runHarness(hcfg, hrec, false)
		hTraced = append(hTraced, time.Since(t0).Seconds())
		drain()
		if time.Since(start).Seconds() > harnessShare*o.Seconds {
			break
		}
	}
	solveNs := float64(hstats["solve"].Total)
	var coreSelf, expSelf, layerSelf int64
	for name, st := range hstats {
		if name == "solve" {
			continue
		}
		layerSelf += st.Self
		switch {
		case strings.HasPrefix(name, "protocol.core."):
			coreSelf += st.Self
			if st.Count > 0 {
				if metric := name + "_ns"; declared(PerLayer, metric) {
					vals[metric] = float64(st.Self) / float64(st.Count)
					samples[metric] = st.Count
				}
			}
		case strings.HasPrefix(name, "expander."):
			expSelf += st.Self
		}
	}
	vals["protocol.core.self_share"] = float64(coreSelf) / solveNs
	vals["trace.accounted_share"] = float64(layerSelf) / solveNs
	if !w.Live {
		vals["bnb.expander.share"] = float64(expSelf) / solveNs
	}
	if !w.Wrapped {
		vals["trace.overhead_pct"] = 100 * (median(hTraced) - median(hPlain)) / median(hPlain)
		samples["trace.overhead_pct"] = len(hTraced)
	}

	// --- the layer micro-drivers.
	m := microFor(o.Seconds)
	s := decodeStreams(first)
	m.code(vals, s)
	m.ctree(vals, s)
	m.codec(vals, s)
	m.instance(vals)
	if len(ins[0].Problems) > 0 {
		m.bnb(vals, ins[0].Problems[0], ins[0].Refs[0], s)
	}
	if w.Live {
		if err := m.live(vals, samples); err != nil {
			return nil, fmt.Errorf("%s: transport micro-drivers: %w", w.Name, err)
		}
		if err := m.nemesis(vals); err != nil {
			return nil, err
		}
	} else {
		m.sim(vals)
	}
	if perCode, ok := vals["ctree.insertall_ns_per_code"]; ok && s.bytesPerCode > 0 {
		// Codes the real driver merged per solve: report codes are counted
		// by the simulator (the termination broadcast excluded); the other
		// code-carrying kinds are sized from their wire bytes.
		codes, sized := vals["protocol.report_codes"], []string{"table", "digest", "subtree_reply"}
		if w.Live {
			sized = append(sized, "report")
		}
		for _, k := range sized {
			payload := vals["protocol.wire."+k+"_bytes"] - msgOverhead*vals["protocol.wire."+k+"_msgs"]
			codes += math.Max(0, payload) / s.bytesPerCode
		}
		cpus := 1.0
		if w.Live {
			cpus = procs
		}
		vals["ctree.merge_wall_share"] = perCode * codes / (1e9 * plainWall * cpus)
	}
	if w.Serial != nil {
		// One solve on the serial mesh against the runs above on one shard
		// per CPU.
		serial := w.Serial(ins[0], o.Sizes)
		g.solve(w.Name+" one-shard solve", serial)
		vals["sim.mesh.parallel_speedup"] = serial.Wall / plainWall
	}

	res := newResult()
	for _, pm := range PerLayer {
		v, ok := vals[pm.Name]
		if !ok {
			res.NA[pm.Name] = true
		}
		n := samples[pm.Name]
		if ok && n == 0 {
			n = m.reps
		}
		res.set(PerLayer, pm.Name, v, n)
	}
	res.finish(g)

	fmt.Fprintf(o.Log, "workload %s seed %d: traced; %d untraced + %d traced driver solves, %d harness pairs on %d cores, micro-drivers %v x %d\n",
		w.Name, o.Seed, len(plain), len(traced), len(hTraced), hcfg.nodes, m.dur, m.reps)
	printSpans(o.Log, "loopback harness", hstats)
	if len(traced) > 0 {
		printSpans(o.Log, "wrapped driver", driverStats)
	}
	res.print(o.Log, PerLayer, g)

	if o.TraceOut != "" {
		// The harness's recording run, then every wrapped-driver solve.
		if err := WriteJSONL(o.TraceOut, joinSpans(firstSpans, tr.rec.Spans())); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func declared(table []Metric, name string) bool {
	for _, m := range table {
		if m.Name == name {
			return true
		}
	}
	return false
}

func medianOf(svs []Solve, f func(Solve) float64) float64 {
	v := make([]float64, len(svs))
	for i, s := range svs {
		v[i] = f(s)
	}
	return median(v)
}

// layerMeans averages the per-layer counts the Results carried.
func layerMeans(dst map[string]float64, samples map[string]int, svs []Solve) {
	sum := map[string]float64{}
	cnt := map[string]int{}
	for _, sv := range svs {
		for k, v := range sv.Layer {
			sum[k] += v
			cnt[k]++
		}
	}
	for k, v := range sum {
		dst[k] = v / float64(cnt[k])
		samples[k] = cnt[k]
	}
}

// joinSpans concatenates two recorders' spans into one file's worth: parent
// indices and solve ids of the second are shifted past the first, so a
// parent is always the index of a line.
func joinSpans(a, b []Span) []Span {
	out := append([]Span(nil), a...)
	var lastSolve int32
	for _, s := range a {
		lastSolve = max(lastSolve, s.Solve)
	}
	for _, s := range b {
		if s.Parent >= 0 {
			s.Parent += int32(len(a))
		}
		s.Solve += lastSolve
		out = append(out, s)
	}
	return out
}

func printSpans(w io.Writer, title string, stats map[string]SpanStat) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	total := float64(stats["solve"].Total)
	fmt.Fprintf(w, "  spans, %s (self time = duration - time covered by child spans):\n", title)
	for _, n := range names {
		st := stats[n]
		fmt.Fprintf(w, "    %-38s n=%-8d total %10.3f ms  self %10.3f ms  %5.1f%% of solve\n",
			n, st.Count, float64(st.Total)/1e6, float64(st.Self)/1e6, 100*float64(st.Self)/total)
	}
}
