package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"gossipbnb/internal/nemesis"
)

// TestNemesisFlagParsing: -nemesis takes every fault of the grammar the live
// runtime speaks, as nemesis.Parse reads it, and a rejected spec leaves the
// list as it was.
func TestNemesisFlagParsing(t *testing.T) {
	var n nemesisList
	good := []string{
		"partition:10-20:0,1|2",
		"oneway:1-2:0|1",
		"stall:3:5-",
		"flap:0-2:4:0-20",
		"slow:0-1:10ms",
		"corrupt:0.5",
		"loss:0.1:0-30",
		"dup:0.2",
		"reorder:0.3:20ms",
		"replay:0.05:2:10-",
	}
	for _, s := range good {
		if err := n.Set(s); err != nil {
			t.Fatal(err)
		}
	}
	if len(n) != len(good) {
		t.Fatalf("faults = %v", n)
	}
	for i, s := range good {
		if want, _ := nemesis.Parse(s); n[i].String() != want.String() {
			t.Errorf("Set(%q) stored %v", s, n[i])
		}
	}
	if n.String() == "" {
		t.Error("empty String")
	}
	for _, bad := range []string{
		"",
		"bogus:1-2:0",
		"partition:2-1:0", // bad window
		"loss:NaN",        // not a probability
		"replay:0.1:-1",   // negative delay
	} {
		if err := n.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
	if len(n) != len(good) {
		t.Errorf("rejected specs mutated the list: %v", n)
	}
}

// TestNemesisFlagReachesRun: faults the simulator once refused as live-only
// now act in a run — a one-way cut counts cut messages, and the run still
// ends with the exact optimum.
func TestNemesisFlagReachesRun(t *testing.T) {
	out, err := dbbsim(t, "-procs", "4", "-size", "301",
		"-nemesis", "oneway:0-5:0|1,2", "-nemesis", "slow:2-3:50ms", "-nemesis", "replay:0.05")
	if err != nil {
		t.Fatalf("dbbsim failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "correct=true") || strings.Contains(out, " 0 cut") {
		t.Errorf("want a correct run with cut messages:\n%s", out)
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
		{name: "instances+gantt", insts: 2, gantt: true, shards: 1, want: false},
		{name: "instances+join", insts: 2, joins: joinList{{Time: 5, Count: 2}}, shards: 1, want: false},
		{name: "shards+gantt clamps", gantt: true, shards: 0, want: true},
		{name: "negative shards", shards: -1, want: false},
		{name: "join without membership", joins: joinList{{Time: 5, Count: 2}}, shards: 1, want: true},
	}
	for _, c := range cases {
		err := validateFlags(c.insts, c.problem, c.gantt, c.shards, c.joins)
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

// TestShardsClampReported: a -gantt trace cannot be partitioned, so -shards 4
// runs it on one shard and the engine line says both numbers; -membership
// runs on the shards it asks for.
func TestShardsClampReported(t *testing.T) {
	out, err := dbbsim(t, "-procs", "8", "-size", "801", "-shards", "4", "-gantt")
	if err != nil {
		t.Fatalf("-shards 4 -gantt failed: %v\n%s", err, out)
	}
	for _, want := range []string{"terminated=true", "correct=true", "engine: 1 shards (4 requested)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	out, err = dbbsim(t, "-procs", "8", "-size", "801", "-shards", "4", "-membership")
	if err != nil {
		t.Fatalf("-shards 4 -membership failed: %v\n%s", err, out)
	}
	for _, want := range []string{"terminated=true", "correct=true", "engine: 4 shards,", "heartbeat "} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestInstancesWithMembership: -instances runs under -membership too, every
// instance at its optimum.
func TestInstancesWithMembership(t *testing.T) {
	out, err := dbbsim(t, "-procs", "6", "-instances", "3", "-instsize", "12", "-stagger", "2", "-membership", "-shards", "2")
	if err != nil {
		t.Fatalf("-instances -membership failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "terminated=true") || strings.Contains(out, "false") {
		t.Errorf("a multi-instance membership run missed an optimum:\n%s", out)
	}
}
