package gb

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Options selects one run of one workload.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Sizes    Sizes
	// TraceOut, if set, receives the traced run's spans as JSONL.
	TraceOut string
	// Log receives the human-readable report; nil discards it.
	Log io.Writer
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the object a run prints as its last line.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`

	// Samples is how many samples stand behind each metric; NA lists the
	// per-layer metrics that do not apply to the workload (reported as 0).
	// Neither is part of the driver line.
	Samples map[string]int  `json:"-"`
	NA      map[string]bool `json:"-"`
}

// A run sets up until setupBudget seconds are spent, at least once and at
// most maxSetups times; setup_s is the median. A 0.1 s set-up is thus timed
// ten times, while an instance-searching one that takes seconds is timed
// once.
const (
	maxSetups   = 25
	setupBudget = 1.0 // seconds
)

// Run executes one run and returns what it measured.
func Run(o Options) (*Result, error) {
	w, err := ByName(o.Workload)
	if err != nil {
		return nil, err
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	if o.Trace {
		return runTraced(w, o)
	}
	return runUntraced(w, o)
}

// gate tallies the correctness gate across every solve of a run.
type gate struct {
	attempted, failed int
	notes             []string
}

func (g *gate) solve(name string, sv Solve) {
	g.attempted++
	if !sv.OK {
		g.fail(name + ": not terminated at the sequential optimum")
	}
}

func (g *gate) fail(note string) {
	g.failed++
	g.notes = append(g.notes, note)
}

// cycle is one pass over every input of the run.
type cycle []Solve

func (c cycle) sum(f func(Solve) float64) float64 {
	t := 0.0
	for _, s := range c {
		t += f(s)
	}
	return t
}

// runCycles measures whole cycles over ins for about seconds: a cycle always
// completes, so every run of a workload measures the same mix of inputs
// however fast the machine is, and it stops when another cycle would overrun.
func runCycles(w *Workload, ins []*Input, seconds float64, g *gate) []cycle {
	var cycles []cycle
	start := time.Now()
	for {
		t0 := time.Now()
		// Collect outside the timed solves so each cycle starts from the
		// same heap state.
		runtime.GC()
		if w.Live {
			ins[len(cycles)%len(ins)].measureSeq()
		}
		c := make(cycle, len(ins))
		for i, in := range ins {
			c[i] = in.Run(nil)
			g.solve(fmt.Sprintf("%s cycle %d input %d", w.Name, len(cycles), i), c[i])
		}
		if !w.Live && len(cycles) > 0 {
			checkRepeat(w, cycles[0], c, len(cycles), g)
		}
		cycles = append(cycles, c)
		if time.Since(start).Seconds()+time.Since(t0).Seconds() > seconds {
			return cycles
		}
	}
}

// checkRepeat is the determinism gate: a simulated solve is a function of
// its input, so its counts must repeat exactly from cycle to cycle.
func checkRepeat(w *Workload, first, c cycle, n int, g *gate) {
	for i := range c {
		a, b := first[i], c[i]
		if a.Exec != b.Exec || a.Exp != b.Exp || a.Msgs != b.Msgs || a.Bytes != b.Bytes || a.Events != b.Events {
			g.fail(fmt.Sprintf("%s input %d: cycle %d differs from cycle 0 (time %v/%v exp %d/%d msgs %d/%d bytes %d/%d events %d/%d)",
				w.Name, i, n, a.Exec, b.Exec, a.Exp, b.Exp, a.Msgs, b.Msgs, a.Bytes, b.Bytes, a.Events, b.Events))
		}
	}
}

// setUp sets the workload up repeatedly (see setupBudget) and returns the
// last inputs with every set-up's time. A set-up is everything before the
// first timed solve: generating the inputs, solving their sequential
// references, and one warm-up solve — so lazy work a change pushes into the
// first solve shows in setup_s, and setup_s is never a few noisy
// milliseconds.
func setUp(w *Workload, o Options, g *gate) ([]*Input, []float64) {
	var (
		ins   []*Input
		times []float64
	)
	for start := time.Now(); len(times) < maxSetups && (len(times) == 0 || time.Since(start).Seconds() < setupBudget); {
		t0 := time.Now()
		ins = w.Setup(o.Seed, o.Sizes)
		g.solve(w.Name+" warm-up", ins[0].Run(nil))
		times = append(times, time.Since(t0).Seconds())
	}
	return ins, times
}

func runUntraced(w *Workload, o Options) (*Result, error) {
	g := &gate{}
	ins, setupTimes := setUp(w, o, g)
	cycles := runCycles(w, ins, o.Seconds, g)

	res := newResult()
	k := float64(len(ins))
	over := func(f func(c cycle) float64) float64 {
		vals := make([]float64, len(cycles))
		for i, c := range cycles {
			vals[i] = f(c)
		}
		return median(vals)
	}
	wall := func(s Solve) float64 { return s.Wall }
	exp := func(s Solve) float64 { return float64(s.Exp) }
	seqExp := func(s Solve) float64 { return float64(s.SeqExp) }
	msgs := func(s Solve) float64 { return float64(s.Msgs) }
	exec := func(s Solve) float64 { return s.Exec }
	n := len(cycles)
	res.set(EndToEnd, "setup_s", median(setupTimes), len(setupTimes))
	res.set(EndToEnd, "solve_wall_s", over(func(c cycle) float64 { return c.sum(wall) / k }), n)
	res.set(EndToEnd, "expansions_per_s", over(func(c cycle) float64 { return c.sum(exp) / c.sum(wall) }), n)
	res.set(EndToEnd, "exec_time_s", over(func(c cycle) float64 { return c.sum(exec) / k }), n)
	res.set(EndToEnd, "speedup_vs_seq", over(func(c cycle) float64 {
		return c.sum(func(s Solve) float64 { return s.SeqExec }) / c.sum(exec)
	}), n)
	res.set(EndToEnd, "work_ratio", over(func(c cycle) float64 { return c.sum(exp) / c.sum(seqExp) }), n)
	res.set(EndToEnd, "msgs_per_expansion", over(func(c cycle) float64 { return c.sum(msgs) / c.sum(exp) }), n)
	res.set(EndToEnd, "wire_bytes_per_expansion", over(func(c cycle) float64 {
		return c.sum(func(s Solve) float64 { return float64(s.Bytes) }) / c.sum(exp)
	}), n)
	res.set(EndToEnd, "effort_ratio", over(func(c cycle) float64 { return (c.sum(exp) + c.sum(msgs)) / c.sum(seqExp) }), n)
	res.set(EndToEnd, "allocs_per_solve", over(func(c cycle) float64 {
		return c.sum(func(s Solve) float64 { return float64(s.Mallocs) }) / k
	}), n)
	res.set(EndToEnd, "peak_rss_mb", peakRSSMB(), 1)
	res.finish(g)

	fmt.Fprintf(o.Log, "workload %s seed %d: %d cycles x %d inputs, untraced, closed loop, GOMAXPROCS %d\n",
		w.Name, o.Seed, n, len(ins), runtime.GOMAXPROCS(0))
	res.print(o.Log, EndToEnd, g)
	return res, nil
}

func newResult() *Result {
	return &Result{Metrics: map[string]Value{}, Samples: map[string]int{}, NA: map[string]bool{}}
}

// set records metric name from table with its declared unit.
func (r *Result) set(table []Metric, name string, v float64, samples int) {
	for _, m := range table {
		if m.Name == name {
			r.Metrics[name] = Value{Value: v, Unit: m.Unit}
			r.Samples[name] = samples
			return
		}
	}
	panic("gb: metric " + name + " is not declared in spec.go")
}

func (r *Result) finish(g *gate) {
	r.Attempted, r.Failed = g.attempted, g.failed
	r.Correct = g.failed == 0 && g.attempted > 0
}

// print writes every metric of table by name with its unit.
func (r *Result) print(w io.Writer, table []Metric, g *gate) {
	for _, m := range table {
		v, ok := r.Metrics[m.Name]
		switch {
		case r.NA[m.Name]:
			fmt.Fprintf(w, "  %-42s %14s %-6s\n", m.Name, "n/a", m.Unit)
		case ok:
			fmt.Fprintf(w, "  %-42s %14.6g %-6s n=%d\n", m.Name, v.Value, v.Unit, r.Samples[m.Name])
		}
	}
	fmt.Fprintf(w, "  %-42s %14.6g %-6s %d of %d solves\n", "failed_share",
		float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio", r.Failed, r.Attempted)
	for _, n := range g.notes {
		fmt.Fprintln(w, "  FAILED:", n)
	}
}

// Line renders the driver's result line.
func (r *Result) Line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // unreachable: Result holds only numbers, strings and bools
	}
	return string(b)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// peakRSSMB is this process's ru_maxrss (kilobytes on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
