package dbnb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gossipbnb/internal/btree"
	"gossipbnb/internal/member"
	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/protocol"
	"gossipbnb/internal/sim"
)

// The live heal scenarios, run deterministically in the simulator: the same
// §5.2 detector (internal/member), the same nemesis faults, on virtual time.
// Four processes replay a tree of about 300 s of sequential work under
// UseMembership's defaults — a heartbeat each second, suspicion after 3 s,
// exclusion after 10 s — and each test pins the exact transition sequence the
// harness's onDetect hook saw, each as "time observer→peer kind".

// healRun runs the scenario and returns its transitions and the harness.
func healRun(t *testing.T, faults ...string) ([]string, *harness) {
	t.Helper()
	fs, err := nemesis.ParseAll(faults)
	if err != nil {
		t.Fatal(err)
	}
	tr := btree.Random(rand.New(rand.NewSource(9)), btree.RandomConfig{
		Size: 601, Cost: btree.CostModel{Mean: 0.5, Sigma: 0.4}, BoundSpread: 1, FeasibleProb: 0.1,
	})
	h := newHarness(Config{Procs: 4, Seed: 9, UseMembership: true, RecoveryQuiet: 5, Nemesis: nemesis.New(fs...)},
		[]*spec{{w: treeWorkload(tr)}}, false)
	var seq []string
	h.onDetect = func(obs sim.NodeID, peer protocol.NodeID, k member.Transition) {
		seq = append(seq, fmt.Sprintf("%v %d→%d %v", h.shards[0].k.Now(), obs, peer, k))
	}
	res := h.run()
	if !res.Terminated || !res.Instances[0].OptimumOK {
		t.Fatalf("%v: terminated=%v optimumOK=%v", faults, res.Terminated, res.Instances[0].OptimumOK)
	}
	return seq, h
}

func checkTransitions(t *testing.T, got []string, want string) {
	t.Helper()
	if g := strings.Join(got, "\n"); g != strings.TrimSpace(want) {
		t.Errorf("transitions moved:\n got\n%s\nwant\n%s", g, strings.TrimSpace(want))
	}
}

// checkViews holds every process's final view to want, a list per process.
func checkViews(t *testing.T, h *harness, want string) {
	t.Helper()
	views := make([]string, 4)
	for i := range views {
		views[i] = fmt.Sprint(h.agents[i].m.Peers())
	}
	if got := strings.Join(views, " "); got != want {
		t.Errorf("final views %s, want %s", got, want)
	}
}

// TestHealStallPastExclude: process 2 stalls at 5 s and never recovers. Every
// other process suspects it 3 s after its last heartbeat and excludes it 10 s
// after, as it does them; the stalled side solo-finishes by complement
// recovery.
func TestHealStallPastExclude(t *testing.T) {
	seq, h := healRun(t, "stall:2:5-")
	checkTransitions(t, seq, `
8 0→2 suspected
8 1→2 suspected
8 2→0 suspected
8 2→1 suspected
8 2→3 suspected
8 3→2 suspected
15 0→2 excluded
15 1→2 excluded
15 2→0 excluded
15 2→1 excluded
15 2→3 excluded
15 3→2 excluded`)
	checkViews(t, h, "[1 3] [0 3] [] [0 1]")
}

// TestHealStallWindow: the stall lifts at 25 s. A Hello probe is evidence of
// life: the first ones after the heal re-absorb their senders, whose next
// heartbeats re-absorb the probed side, and every view is whole at the end.
func TestHealStallWindow(t *testing.T) {
	seq, h := healRun(t, "stall:2:5-25")
	checkTransitions(t, seq, `
8 0→2 suspected
8 1→2 suspected
8 2→0 suspected
8 2→1 suspected
8 2→3 suspected
8 3→2 suspected
15 0→2 excluded
15 1→2 excluded
15 2→0 excluded
15 2→1 excluded
15 2→3 excluded
15 3→2 excluded
26.00159 2→0 reabsorbed
26.00159 2→1 reabsorbed
26.00159 0→2 reabsorbed
27.00162 1→2 reabsorbed
27.00163 2→3 reabsorbed
28.00163 3→2 reabsorbed`)
	checkViews(t, h, "[1 2 3] [0 2 3] [0 1 3] [0 1 2]")
}

// TestHealOneway: from 5 s to 20 s nobody hears process 0, which hears
// everyone. Its peers suspect and exclude it; once they no longer address
// it, it suspects them in turn. Its first heartbeat after the heal
// re-absorbs it, and their next ones clear its suspicions.
func TestHealOneway(t *testing.T) {
	seq, h := healRun(t, "oneway:5-20:0|1,2,3")
	checkTransitions(t, seq, `
8 1→0 suspected
8 2→0 suspected
8 3→0 suspected
15 1→0 excluded
15 2→0 excluded
15 3→0 excluded
19 0→1 suspected
19 0→2 suspected
19 0→3 suspected
20.00163 1→0 reabsorbed
20.00163 2→0 reabsorbed
20.00163 3→0 reabsorbed
21.00163 0→1 cleared
21.00163 0→2 cleared
21.00163 0→3 cleared`)
	checkViews(t, h, "[1 2 3] [0 2 3] [0 1 3] [0 1 2]")
}

// TestHealPartition: {0,1} | {2,3} from 5 s to 20 s, as in
// examples/self-healing. Each side excludes the other; the probes after the
// heal, and the heartbeats that answer them, re-absorb every pair.
func TestHealPartition(t *testing.T) {
	seq, h := healRun(t, "partition:5-20:0,1|2,3")
	checkTransitions(t, seq, `
8 0→2 suspected
8 0→3 suspected
8 1→2 suspected
8 1→3 suspected
8 2→0 suspected
8 2→1 suspected
8 3→0 suspected
8 3→1 suspected
15 0→2 excluded
15 0→3 excluded
15 1→2 excluded
15 1→3 excluded
15 2→0 excluded
15 2→1 excluded
15 3→0 excluded
15 3→1 excluded
26.00159 2→0 reabsorbed
26.00159 2→1 reabsorbed
26.00159 0→2 reabsorbed
26.00159 1→3 reabsorbed
27.00159 3→0 reabsorbed
27.00162 3→1 reabsorbed
27.00163 0→3 reabsorbed
27.00163 1→2 reabsorbed`)
	checkViews(t, h, "[1 2 3] [0 2 3] [0 1 3] [0 1 2]")
}
