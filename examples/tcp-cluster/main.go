// Tcp-cluster: run the protocol over real TCP sockets on the loopback
// interface — one listener per process, length-prefixed binary frames, lazy
// dialing — and crash half the cluster mid-run. This is the repository's
// closest stand-in for the paper's "collection of Internet-connected
// computers".
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"gossipbnb"
)

func main() {
	r := rand.New(rand.NewSource(17))
	tree := gossipbnb.RandomTree(r, gossipbnb.RandomTreeConfig{
		Size:         2001,
		Cost:         gossipbnb.CostModel{Mean: 0.02, Sigma: 0.3},
		BoundSpread:  1,
		FeasibleProb: 0.1,
	})
	st := tree.Stats()
	fmt.Printf("problem: %d nodes, %.0f s of simulated work (scaled 500x down)\n",
		st.Size, st.TotalCost)

	nw, err := gossipbnb.NewTCPNetwork(4)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		fmt.Printf("process %d listens on %s\n", i, nw.Addr(gossipbnb.LiveNodeID(i)))
	}

	cl := gossipbnb.NewLiveCluster(tree, gossipbnb.LiveConfig{
		Nodes:         4,
		Seed:          17,
		TimeScale:     0.002,
		Network:       nw,
		RecoveryQuiet: 50 * time.Millisecond,
		Timeout:       120 * time.Second,
	})
	time.AfterFunc(150*time.Millisecond, func() { cl.Crash(2) })
	time.AfterFunc(170*time.Millisecond, func() { cl.Crash(3) })

	res := cl.Run()
	fmt.Printf("terminated=%v in %v, optimum %.3f (correct=%v)\n",
		res.Terminated, res.Elapsed.Round(time.Millisecond), res.Optimum, res.OptimumOK)
	fmt.Printf("%d expansions, %d TCP messages, %d payload bytes\n",
		res.Expanded, res.Net.Sent, res.Net.Bytes)
	if !res.Terminated || !res.OptimumOK {
		log.Fatal("TCP cluster failed the scenario")
	}
	fmt.Println("two survivors finished over real sockets after two processes crashed")
}
