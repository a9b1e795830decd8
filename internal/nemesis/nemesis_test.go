package nemesis

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// parseCases are the grammar's accepted spellings; FuzzParse seeds from them.
var parseCases = []struct {
	in   string
	want Fault
}{
	{"partition:1-3:0,1|2,3", Fault{Kind: Partition, Start: time.Second, End: 3 * time.Second,
		A: []int{0, 1}, B: []int{2, 3}}},
	{"partition:500ms-2s:2", Fault{Kind: Partition, Start: 500 * time.Millisecond,
		End: 2 * time.Second, A: []int{2}}},
	{"partition:2-:0", Fault{Kind: Partition, Start: 2 * time.Second, A: []int{0}}},
	{"oneway:0-1:0|1,2", Fault{Kind: OneWay, End: time.Second, A: []int{0}, B: []int{1, 2}}},
	{"flap:0-2:250ms", Fault{Kind: Flap, A: []int{0}, B: []int{2}, Period: 250 * time.Millisecond}},
	{"flap:0-2:0.5:1-4", Fault{Kind: Flap, A: []int{0}, B: []int{2},
		Period: 500 * time.Millisecond, Start: time.Second, End: 4 * time.Second}},
	{"stall:3:1-2", Fault{Kind: Stall, A: []int{3}, Start: time.Second, End: 2 * time.Second}},
	{"stall:1,2:0-", Fault{Kind: Stall, A: []int{1, 2}}},
	{"slow:1-3:20ms:0-5", Fault{Kind: Slow, A: []int{1}, B: []int{3},
		Delay: 20 * time.Millisecond, End: 5 * time.Second}},
	{"corrupt:0.25", Fault{Kind: Corrupt, Prob: 0.25}},
	{"corrupt:1:1-2", Fault{Kind: Corrupt, Prob: 1, Start: time.Second, End: 2 * time.Second}},
	{"loss:0.05", Fault{Kind: Loss, Prob: 0.05}},
	{"loss:0.5:2-", Fault{Kind: Loss, Prob: 0.5, Start: 2 * time.Second}},
	{"dup:1:0-1.5", Fault{Kind: Dup, Prob: 1, End: 1500 * time.Millisecond}},
	{"reorder:0.2", Fault{Kind: Reorder, Prob: 0.2}},
	{"reorder:0.2:5ms", Fault{Kind: Reorder, Prob: 0.2, Delay: 5 * time.Millisecond}},
	{"reorder:0.2:1-2", Fault{Kind: Reorder, Prob: 0.2, Start: time.Second, End: 2 * time.Second}},
	{"reorder:0.2:1e-3:1-", Fault{Kind: Reorder, Prob: 0.2, Delay: time.Millisecond, Start: time.Second}},
	{"replay:0.05", Fault{Kind: Replay, Prob: 0.05}},
	{"replay:0.1:2", Fault{Kind: Replay, Prob: 0.1, Delay: 2 * time.Second}},
	{"replay:0.1:0:3-4", Fault{Kind: Replay, Prob: 0.1, Start: 3 * time.Second, End: 4 * time.Second}},
}

func TestNemesisParse(t *testing.T) {
	for _, c := range parseCases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// String renders back to the same fault.
		if back, err := Parse(got.String()); err != nil || !reflect.DeepEqual(back, got) {
			t.Errorf("round trip of %q via %q = %+v, %v", c.in, got.String(), back, err)
		}
	}
}

func TestNemesisParseRejects(t *testing.T) {
	for _, s := range []string{
		"",
		"partition",
		"partition:1-2",
		"partition:2-1:0",     // end before start
		"partition:1-2:",      // empty group
		"partition:1-2:a",     // non-numeric id
		"partition:1-2:0|1|2", // three sides
		"oneway:1-2:0",        // missing second side
		"flap:0-0:1",          // self link
		"flap:0-1:-5ms",       // negative period
		"flap:0-1:0",          // zero period
		"slow:0:10ms",         // not a link
		"stall:0",             // missing window
		"corrupt:1.5",         // probability out of range
		"corrupt:-0.1",        // negative probability
		"meteor:1-2:0",        // unknown kind
		"partition:x-2:0",     // bad duration
		"partition:1e10-:0",   // start beyond time.Duration's range
		"partition:NaN-:0",    // NaN start
		"partition:0-Inf:0",   // infinite end
		"partition:-1-2:0",    // negative start
		"flap:0-1:NaN",        // NaN period
		"slow:0-1:1e300",      // delay beyond time.Duration's range
		"corrupt:NaN",         // NaN probability
		"loss:Inf",            // infinite probability
		"loss:1.01",           // probability out of range
		"dup:-0.5",            // negative probability
		"reorder:0.1:-5ms",    // negative window
		"reorder:0.1:x:1-2",   // bad window duration
		"replay:0.1:1:2:3-4",  // too many fields
		"loss:0.1:1:2-3",      // loss takes no duration
		"loss",                // no probability
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestNemesisVerdicts(t *testing.T) {
	sched := New(
		Fault{Kind: Partition, Start: time.Second, End: 2 * time.Second, A: []int{0, 1}},
		Fault{Kind: OneWay, Start: 3 * time.Second, End: 4 * time.Second, A: []int{0}, B: []int{1}},
		Fault{Kind: Slow, A: []int{0}, B: []int{2}, Delay: 10 * time.Millisecond, End: 10 * time.Second},
		Fault{Kind: Corrupt, Prob: 0.5, Start: 5 * time.Second, End: 6 * time.Second},
	)
	at := func(from, to int, sec float64) Verdict {
		return sched.At(from, to, time.Duration(sec*float64(time.Second)))
	}
	// Before the partition window: only the slow link acts.
	if v := at(0, 2, 0.5); v.Cut || v.Delay != 10*time.Millisecond {
		t.Errorf("pre-window 0->2 = %+v", v)
	}
	// Inside the partition: group {0,1} vs rest, both directions.
	if !at(0, 2, 1.5).Cut || !at(2, 1, 1.5).Cut {
		t.Error("partition did not cut group boundary")
	}
	if at(0, 1, 1.5).Cut || at(2, 3, 1.5).Cut {
		t.Error("partition cut inside a side")
	}
	// Window end is exclusive.
	if at(0, 2, 2.0).Cut {
		t.Error("partition active at its end instant")
	}
	// One-way: 0->1 dead, 1->0 alive.
	if !at(0, 1, 3.5).Cut || at(1, 0, 3.5).Cut {
		t.Error("oneway verdict wrong")
	}
	// Corruption window applies to all links and composes with slow.
	v := at(0, 2, 5.5)
	if v.Corrupt != 0.5 || v.Delay != 10*time.Millisecond {
		t.Errorf("corrupt window verdict = %+v", v)
	}
}

func TestNemesisFlapPhases(t *testing.T) {
	f := Fault{Kind: Flap, A: []int{0}, B: []int{1}, Period: time.Second,
		Start: time.Second, End: 10 * time.Second}
	sched := New(f)
	// Down during the first half of each period, up during the second.
	for _, c := range []struct {
		sec  float64
		down bool
	}{
		{0.5, false}, // before window
		{1.1, true},
		{1.6, false},
		{2.2, true},
		{2.9, false},
		{10.1, false}, // after window
	} {
		v := sched.At(0, 1, time.Duration(c.sec*float64(time.Second)))
		if v.Cut != c.down {
			t.Errorf("flap at %.1fs: cut=%v, want %v", c.sec, v.Cut, c.down)
		}
		// Symmetric.
		if w := sched.At(1, 0, time.Duration(c.sec*float64(time.Second))); w.Cut != v.Cut {
			t.Errorf("flap asymmetric at %.1fs", c.sec)
		}
	}
	// Unrelated link untouched.
	if sched.At(0, 2, 1100*time.Millisecond).Cut {
		t.Error("flap cut an unrelated link")
	}
}

func TestNemesisStall(t *testing.T) {
	sched := New(Fault{Kind: Stall, A: []int{2}, Start: 0, End: time.Second})
	if !sched.At(2, 0, 0).Cut || !sched.At(1, 2, 0).Cut {
		t.Error("stall did not cut both directions")
	}
	if sched.At(0, 1, 0).Cut {
		t.Error("stall cut an unrelated link")
	}
}

// TestNemesisNilSchedule: a nil schedule judges every message clean.
func TestNemesisNilSchedule(t *testing.T) {
	var nilSched *Schedule
	if v := nilSched.At(0, 1, time.Second); v != (Verdict{}) {
		t.Errorf("nil schedule judged %+v, want the zero verdict", v)
	}
}

func TestNemesisHorizon(t *testing.T) {
	if h := New(
		Fault{Kind: Partition, Start: 0, End: 2 * time.Second, A: []int{0}},
		Fault{Kind: Stall, Start: time.Second, End: 5 * time.Second, A: []int{1}},
	).Horizon(); h != 5*time.Second {
		t.Errorf("Horizon = %v, want 5s", h)
	}
	if h := New(Fault{Kind: Partition, Start: 0, A: []int{0}}).Horizon(); h != 0 {
		t.Errorf("open-ended Horizon = %v, want 0", h)
	}
}

func TestNemesisParseAll(t *testing.T) {
	fs, err := ParseAll([]string{"partition:1-2:0|1", "corrupt:0.1"})
	if err != nil || len(fs) != 2 {
		t.Fatalf("ParseAll = %v, %v", fs, err)
	}
	if _, err := ParseAll([]string{"partition:1-2:0|1", "bogus"}); err == nil {
		t.Error("ParseAll accepted a bad spec")
	} else if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error does not name the bad spec: %v", err)
	}
}

// TestNemesisNewRejectsInvalid: a fault built in code that the grammar could
// not express panics in New — a NaN probability must not silently run a
// clean network.
func TestNemesisNewRejectsInvalid(t *testing.T) {
	for _, f := range []Fault{
		{Kind: Loss, Prob: math.NaN()},
		{Kind: Corrupt, Prob: -0.1},
		{Kind: Dup, Prob: 2},
		{Kind: Reorder, Prob: 0.1, Delay: -time.Second},
		{Kind: Partition, Start: 2 * time.Second, End: time.Second, A: []int{0}},
		{Kind: Flap, A: []int{0}, B: []int{1}},
		{Kind: Slow, A: []int{0}, B: []int{1}, Delay: -time.Second},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", f)
				}
			}()
			New(f)
		}()
	}
}

// TestNemesisDrawnVerdicts: the per-message probabilities reach the verdict
// unrounded when one fault sets them, compose as independent events when
// two do, and carry the widest explicit reorder window and replay lag.
func TestNemesisDrawnVerdicts(t *testing.T) {
	sched := New(
		Fault{Kind: Loss, Prob: 0.05},
		Fault{Kind: Loss, Prob: 0.5, Start: time.Second, End: 2 * time.Second},
		Fault{Kind: Dup, Prob: 0.1},
		Fault{Kind: Reorder, Prob: 0.2},
		Fault{Kind: Reorder, Prob: 0.2, Delay: 7 * time.Millisecond, Start: time.Second},
		Fault{Kind: Replay, Prob: 0.3, Delay: time.Second},
	)
	v := sched.At(0, 1, 0)
	if v.Loss != 0.05 || v.Dup != 0.1 || v.Reorder != 0.2 || v.Replay != 0.3 || v.Corrupt != 0 ||
		v.ReorderWindow != 0 || v.ReplayAfter != time.Second || v.Cut || v.Delay != 0 {
		t.Errorf("verdict at 0 = %+v", v)
	}
	v = sched.At(3, 2, 1500*time.Millisecond)
	if math.Abs(v.Loss-0.525) > 1e-15 || math.Abs(v.Reorder-0.36) > 1e-15 || v.ReorderWindow != 7*time.Millisecond {
		t.Errorf("composed verdict = %+v", v)
	}
}

// FuzzParse: every fault the grammar accepts is well formed, and its String
// reads back as the same fault.
func FuzzParse(f *testing.F) {
	for _, c := range parseCases {
		f.Add(c.in)
	}
	f.Add("partition:1e10-:0")
	f.Add("replay:0.1:2562047h:0-")
	f.Fuzz(func(t *testing.T, s string) {
		got, err := Parse(s)
		if err != nil {
			return
		}
		if got.Start < 0 || (got.End != 0 && got.End <= got.Start) {
			t.Fatalf("Parse(%q): window [%v, %v)", s, got.Start, got.End)
		}
		if !(got.Prob >= 0 && got.Prob <= 1) {
			t.Fatalf("Parse(%q): probability %v", s, got.Prob)
		}
		back, err := Parse(got.String())
		if err != nil || !reflect.DeepEqual(back, got) {
			t.Fatalf("Parse(%q) = %+v; String %q reads back as %+v, %v", s, got, got.String(), back, err)
		}
	})
}
