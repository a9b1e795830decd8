// Self-healing: a TCP cluster rides out a network partition with zero
// orchestration. The nemesis severs two processes from the other two
// mid-run and heals the cut later; nobody calls Crash, nobody restarts
// anything. Each side's failure detector notices the silence (every message
// is evidence of life, and heartbeat tables go to a few random peers each
// heartbeat), suspects and then excludes the unreachable peers — the same §5.2 view shrink a crash
// produces — and keeps working on what it can reach. When the partition
// heals, Hello probes cross the mended link, the excluded peers are
// re-absorbed with a completion-table bootstrap, and the cluster finishes
// with the correct optimum, every view whole again.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"gossipbnb"
)

func main() {
	r := rand.New(rand.NewSource(41))
	tree := gossipbnb.RandomTree(r, gossipbnb.RandomTreeConfig{
		Size:         2001,
		Cost:         gossipbnb.CostModel{Mean: 0.02, Sigma: 0.3},
		BoundSpread:  1,
		FeasibleProb: 0.1,
	})
	st := tree.Stats()
	fmt.Printf("problem: %d nodes, %.0f s of simulated work (scaled down)\n",
		st.Size, st.TotalCost)

	// Cut {0,1} off from {2,3} between 100 ms and 400 ms into the run.
	sched, err := gossipbnb.ParseNemesis("partition:0.1-0.4:0,1|2,3")
	if err != nil {
		log.Fatal(err)
	}

	nw, err := gossipbnb.NewTCPNetwork(4)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	cl := gossipbnb.NewLiveCluster(tree, gossipbnb.LiveConfig{
		Nodes:         4,
		Seed:          41,
		TimeScale:     0.01,
		Network:       nw,
		RecoveryQuiet: 30 * time.Millisecond,
		SuspectAfter:  30 * time.Millisecond,
		ExcludeAfter:  120 * time.Millisecond,
		Nemesis:       sched,
		Linger:        time.Second,
		Timeout:       120 * time.Second,
		OnDetect: func(e gossipbnb.DetectEvent) {
			fmt.Printf("  %6s  node %d %s node %d\n",
				time.Since(start).Round(time.Millisecond), e.Node, e.Kind, e.Peer)
		},
	})

	res := cl.Run()
	fmt.Printf("terminated=%v in %v, optimum %.3f (correct=%v)\n",
		res.Terminated, res.Elapsed.Round(time.Millisecond), res.Optimum, res.OptimumOK)
	fmt.Printf("network: %d msgs, %d cut by the partition, %d suppressed toward excluded peers\n",
		res.Net.Sent, res.Net.Cut, res.Net.Suspect)
	fmt.Printf("detector: %d suspicions, %d exclusions, %d re-absorbed\n",
		res.Suspicions, res.Exclusions, res.Reabsorbed)

	for id := 0; id < 4; id++ {
		if v := cl.PeerView(gossipbnb.LiveNodeID(id)); len(v) != 3 {
			log.Fatalf("node %d ended with view %v — a live peer stayed excluded", id, v)
		}
	}
	if !res.Terminated || !res.OptimumOK {
		log.Fatal("self-healing scenario failed")
	}
	fmt.Println("partition detected, excluded, healed, and re-absorbed — zero Crash calls")
}
