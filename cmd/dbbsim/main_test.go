package main

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestNemesisFlagParsing(t *testing.T) {
	var n nemesisList
	if err := n.Set("partition:10-20:0,1"); err != nil {
		t.Fatal(err)
	}
	if err := n.Set("stall:3:5-"); err != nil {
		t.Fatal(err)
	}
	if err := n.Set("flap:0-2:4:0-20"); err != nil {
		t.Fatal(err)
	}
	if len(n.specs) != 3 {
		t.Fatalf("specs = %v", n.specs)
	}
	// partition → one window; open-ended stall → to +Inf; 20s flap at
	// period 4 → five down half-periods.
	if len(n.parts) != 1+1+5 {
		t.Fatalf("parts = %+v", n.parts)
	}
	if p := n.parts[0]; p.Start != 10 || p.End != 20 || len(p.Group) != 2 {
		t.Errorf("partition window = %+v", p)
	}
	if p := n.parts[1]; p.Start != 5 || !math.IsInf(p.End, 1) || len(p.Group) != 1 || p.Group[0] != 3 {
		t.Errorf("stall window = %+v", p)
	}
	if p := n.parts[2]; p.Start != 0 || p.End != 2 || len(p.Group) != 1 || p.Group[0] != 0 {
		t.Errorf("first flap window = %+v", p)
	}
	if p := n.parts[6]; p.Start != 16 || p.End != 18 {
		t.Errorf("last flap window = %+v", p)
	}
	if n.String() == "" {
		t.Error("empty String")
	}
	for _, bad := range []string{
		"",
		"bogus:1-2:0",
		"oneway:1-2:0|1",  // live-only: no directed cuts in the simulator
		"slow:0-1:10ms",   // live-only: no per-link delay
		"corrupt:0.5",     // live-only: no payload damage
		"flap:0-1:4:10-",  // open-ended flap cannot be enumerated
		"partition:2-1:0", // bad window
	} {
		if err := n.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
	// Rejected specs must not leave partial state behind.
	if len(n.specs) != 3 || len(n.parts) != 7 {
		t.Errorf("rejected specs mutated the list: %v / %+v", n.specs, n.parts)
	}
}

func TestCrashListParsing(t *testing.T) {
	var c crashList
	if err := c.Set("12.5:3"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("40:0"); err != nil {
		t.Fatal(err)
	}
	if len(c) != 2 || c[0].Time != 12.5 || c[0].Node != 3 || c[1].Node != 0 {
		t.Errorf("parsed = %+v", c)
	}
	if c.String() == "" {
		t.Error("empty String")
	}
	for _, bad := range []string{"", "12", "a:b", "3;4"} {
		if err := c.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

func TestJoinListParsing(t *testing.T) {
	var j joinList
	if err := j.Set("25:4"); err != nil {
		t.Fatal(err)
	}
	if err := j.Set("60.5:1"); err != nil {
		t.Fatal(err)
	}
	if len(j) != 2 || j[0].Time != 25 || j[0].Count != 4 || j[1].Time != 60.5 || j[1].Count != 1 {
		t.Errorf("parsed = %+v", j)
	}
	if j.String() == "" {
		t.Error("empty String")
	}
	for _, bad := range []string{"", "25", "a:b", "25:x", "25:0", "25:-3", "1:2:3"} {
		if err := j.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

func TestValidateFlagInstanceCombos(t *testing.T) {
	ok := func(err error) bool { return err == nil }
	cases := []struct {
		name    string
		insts   int
		problem string
		tree    string
		member  bool
		gantt   bool
		shards  int
		joins   joinList
		want    bool // valid?
	}{
		{name: "defaults", shards: 1, want: true},
		{name: "instances alone", insts: 4, shards: 1, want: true},
		{name: "instances sharded", insts: 4, shards: 4, want: true},
		{name: "negative instances", insts: -1, shards: 1, want: false},
		{name: "instances+problem", insts: 2, problem: "knapsack:12:1", shards: 1, want: false},
		{name: "instances+tree", insts: 2, tree: "t.gbbt", shards: 1, want: false},
		{name: "instances+membership", insts: 2, member: true, shards: 1, want: false},
		{name: "instances+gantt", insts: 2, gantt: true, shards: 1, want: false},
		{name: "instances+join", insts: 2, joins: joinList{{Time: 5, Count: 2}}, shards: 1, want: false},
		{name: "problem+tree", problem: "qap:6:1", tree: "t.gbbt", shards: 1, want: false},
		{name: "shards+membership clamps", member: true, shards: 4, want: true},
		{name: "shards+gantt clamps", gantt: true, shards: 0, want: true},
		{name: "negative shards", shards: -1, want: false},
		{name: "join without membership", joins: joinList{{Time: 5, Count: 2}}, shards: 1, want: true},
	}
	for _, c := range cases {
		err := validateFlags(c.insts, c.problem, c.tree, c.member, c.gantt, c.shards, c.joins)
		if ok(err) != c.want {
			t.Errorf("%s: err = %v, want valid=%v", c.name, err, c.want)
		}
	}
}

// TestMain lets the tests below run the command itself: re-executed with
// DBBSIM_RUN_MAIN set, the test binary is dbbsim.
func TestMain(m *testing.M) {
	if os.Getenv("DBBSIM_RUN_MAIN") != "" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

func dbbsim(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DBBSIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestShardsMinusOneRejected: -1 selected the serial kernel that no longer
// exists; the error has to say what to use instead.
func TestShardsMinusOneRejected(t *testing.T) {
	out, err := dbbsim(t, "-procs", "3", "-size", "301", "-shards", "-1")
	if err == nil {
		t.Fatalf("-shards -1 exited zero:\n%s", out)
	}
	if !strings.Contains(out, "-shards 1") {
		t.Errorf("rejection does not name the replacement:\n%s", out)
	}
}

// TestShardsClampReported: -membership cannot be partitioned, so -shards 4
// runs it on one shard and the engine line says both numbers.
func TestShardsClampReported(t *testing.T) {
	out, err := dbbsim(t, "-procs", "8", "-size", "801", "-shards", "4", "-membership")
	if err != nil {
		t.Fatalf("-shards 4 -membership failed: %v\n%s", err, out)
	}
	for _, want := range []string{"terminated=true", "correct=true", "engine: 1 shards (4 requested)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
