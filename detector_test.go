package gossipbnb

import (
	"math/rand"
	"testing"
	"time"
)

// TestCleanTCPRunTripsNoDetector: failure detection must cost nothing when
// nothing fails. A failure-free 4-node TCP solve with the detector on, at a
// threshold no healthy run crosses, ends at the optimum with no suspicion, no
// exclusion and no frame rejected by the CRC trailer.
func TestCleanTCPRunTripsNoDetector(t *testing.T) {
	k := RandomKnapsack(rand.New(rand.NewSource(12)), 18)
	seq := SolveProblem(k)
	nw, err := NewTCPNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	res := NewLiveProblemClusterRef(k, seq, LiveConfig{
		Nodes: 4, Seed: 12, Prune: true, Network: nw,
		SuspectAfter: 500 * time.Millisecond,
		Timeout:      60 * time.Second,
	}).Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("clean TCP run: terminated=%v optimumOK=%v", res.Terminated, res.OptimumOK)
	}
	if res.Net.Corrupt != 0 {
		t.Errorf("clean TCP run rejected %d frames", res.Net.Corrupt)
	}
	if res.Suspicions != 0 || res.Exclusions != 0 {
		t.Errorf("failure-free run tripped the detector: %d suspicions, %d exclusions", res.Suspicions, res.Exclusions)
	}
}
