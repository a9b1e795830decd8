// Live-gossip: run the protocol on real goroutines and channels — every
// process a goroutine, every message a channel send through a lossy,
// delaying in-memory transport — and crash two thirds of the cluster while
// it works. Wall-clock time, real concurrency, same guarantees.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"gossipbnb"
)

func main() {
	r := rand.New(rand.NewSource(3))
	tree := gossipbnb.RandomTree(r, gossipbnb.RandomTreeConfig{
		Size:         1501,
		Cost:         gossipbnb.CostModel{Mean: 0.02, Sigma: 0.3},
		BoundSpread:  1,
		FeasibleProb: 0.1,
	})
	st := tree.Stats()
	fmt.Printf("problem: %d nodes, %.0f s of simulated work (scaled 1000x down)\n",
		st.Size, st.TotalCost)

	loss, err := gossipbnb.ParseNemesis("loss:0.02")
	if err != nil {
		log.Fatal(err)
	}
	cl := gossipbnb.NewLiveCluster(tree, gossipbnb.LiveConfig{
		Nodes:     6,
		Seed:      3,
		TimeScale: 0.001, // 1 simulated second = 1 ms of wall clock
		Delay: func(bytes int) time.Duration {
			return 100*time.Microsecond + time.Duration(bytes)*100*time.Nanosecond
		},
		Nemesis:       loss,
		RecoveryQuiet: 40 * time.Millisecond,
		Timeout:       60 * time.Second,
	})

	// Crash four of the six goroutine-processes mid-run.
	for i, d := range []time.Duration{120, 140, 160, 180} {
		node := gossipbnb.LiveNodeID(i + 2)
		d := d
		time.AfterFunc(d*time.Millisecond, func() { cl.Crash(node) })
	}

	res := cl.Run()
	fmt.Printf("terminated=%v in %v wall clock\n", res.Terminated, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("optimum %.3f (correct=%v), %d expansions, %d messages, %d bytes\n",
		res.Optimum, res.OptimumOK, res.Expanded, res.MsgsSent, res.BytesSent)
	if !res.Terminated || !res.OptimumOK {
		log.Fatal("live cluster failed the scenario")
	}
	fmt.Println("two survivors finished the search after four of six goroutines crashed")
}
