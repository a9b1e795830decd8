package gb

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestSpecWithinDriverLimits(t *testing.T) {
	if err := CheckSpec(); err != nil {
		t.Fatal(err)
	}
	if len(registry) != len(Workloads) {
		t.Fatalf("%d workloads implemented, %d declared", len(registry), len(Workloads))
	}
}

// TestBenchmarkJSONIsGenerated pins the committed BENCHMARK.json to the
// metric tables: regenerate it with `gbbench -print-spec`.
func TestBenchmarkJSONIsGenerated(t *testing.T) {
	want, err := BenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the tables in spec.go; run: go run -C bench ./cmd/gbbench -print-spec > BENCHMARK.json")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(got))
	}
}

// TestSmokeEveryMetricPrinted runs each workload at tiny sizes, untraced and
// traced, and checks that the result line carries exactly the declared
// metrics and that the correctness gate passed. The live workloads open
// loopback sockets, so -short skips them.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	for _, w := range registry {
		if w.Live && testing.Short() {
			continue
		}
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			res, err := Run(Options{Workload: w.Name, Seed: DefaultSeed, Seconds: 0.05, Trace: trace, Sizes: TinySizes, Log: &log})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: gate failed: %d of %d\n%s", w.Name, trace, res.Failed, res.Attempted, log.String())
			}
			table := EndToEnd
			if trace {
				table = PerLayer
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s trace=%v: %d metrics in the line, %d declared", w.Name, trace, len(res.Metrics), len(table))
			}
			for _, m := range table {
				v, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s missing", w.Name, trace, m.Name)
					continue
				}
				if v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v %s", w.Name, m.Name, v.Value, v.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; they must never be 0", w.Name, m.Name, v.Value)
				}
				if !bytes.Contains(log.Bytes(), []byte(m.Name)) {
					t.Errorf("%s trace=%v: %s not printed by name", w.Name, trace, m.Name)
				}
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(res.Line()), &line); err != nil || len(line) != 4 {
				t.Errorf("%s: result line has %d keys (%v), want correct/attempted/failed/metrics", w.Name, len(line), err)
			}
		}
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},    // nested child
		{Name: "leaf", Start: 15, End: 25, Parent: 1}, // grandchild
		{Name: "b", Start: 30, End: 60, Parent: 0},    // overlaps a on [30,40]
		{Name: "b", Start: 90, End: 120, Parent: 0},   // sticks out of the parent
	}
	st := SelfTimes(spans)
	// Children cover [10,60] and [90,100] of the root: 60 of its 100.
	if got := st["root"].Self; got != 40 {
		t.Errorf("root self = %d, want 40", got)
	}
	if got := st["a"].Self; got != 20 {
		t.Errorf("a self = %d, want 30-10", got)
	}
	if got := st["b"]; got.Count != 2 || got.Total != 60 || got.Self != 60 {
		t.Errorf("b = %+v, want 2 spans, 60 total, 60 self", got)
	}
	if got := st["leaf"].Self; got != 10 {
		t.Errorf("leaf self = %d, want 10", got)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := NewRecorder()
	r.NextSolve()
	outer := r.Begin("outer")
	inner := r.Begin("inner")
	r.End(inner)
	r.End(outer)
	sp := r.Spans()
	if len(sp) != 2 || sp[1].Parent != 0 || sp[0].Parent != -1 || sp[1].Solve != 1 {
		t.Fatalf("spans = %+v", sp)
	}
	if sp[1].Start < sp[0].Start || sp[1].End > sp[0].End {
		t.Errorf("inner [%d,%d] not inside outer [%d,%d]", sp[1].Start, sp[1].End, sp[0].Start, sp[0].End)
	}
	var nilRec *Recorder
	nilRec.End(nilRec.Begin("untraced")) // must not panic
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the driver's spread.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v, %v; python gives 0.75, 2.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(label string, wall, spread float64) *File {
		f := &File{Label: label, Workloads: map[string]WorkloadResult{}}
		e2e := map[string]Stat{}
		for _, m := range EndToEnd {
			e2e[m.Name] = Stat{Unit: m.Unit, Median: 1, Q1: 1, Q3: 1, N: 3, Values: []float64{1, 1, 1}}
		}
		e2e["solve_wall_s"] = Stat{Unit: "s", Median: wall, Q1: wall * (1 - spread/2), Q3: wall * (1 + spread/2), N: 3,
			Values: []float64{wall * (1 - spread/2), wall, wall * (1 + spread/2)}}
		f.Workloads["sim-table1"] = WorkloadResult{Attempted: 10, EndToEnd: e2e}
		return f
	}
	bounds, err := Bounds("")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if n := Compare(&out, mk("a", 1, 0.01), mk("b", 1.02, 0.01), bounds); n != 0 {
		t.Errorf("2%% slower within the bound counted %d regressions\n%s", n, out.String())
	}
	if n := Compare(&out, mk("a", 1, 0.01), mk("b", 2, 0.01), bounds); n != 1 {
		t.Errorf("2x slower counted %d regressions, want 1", n)
	}
	out.Reset()
	if n := Compare(&out, mk("a", 1, 0.9), mk("b", 2, 0.9), bounds); n != 0 || !bytes.Contains(out.Bytes(), []byte("unresolved")) {
		t.Errorf("spread wider than the bound must read unresolved, got %d regressions\n%s", n, out.String())
	}
	worse := mk("b", 1, 0.01)
	wr := worse.Workloads["sim-table1"]
	wr.Failed = 1
	worse.Workloads["sim-table1"] = wr
	if n := Compare(&out, mk("a", 1, 0.01), worse, bounds); n != 1 {
		t.Errorf("a higher failed share counted %d regressions, want 1", n)
	}
}
