// Cluster-failures: the paper's headline scenario at cluster scale. A
// 32-process simulated pool solves a ~10,000-node problem while processes
// crash throughout the run — including a burst that leaves only a handful of
// survivors — a third of the crashed machines later reboot and rejoin with
// empty state, and a temporary network partition splits the pool in half.
// The run must still terminate with the exact optimum.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"gossipbnb"
)

func main() {
	r := rand.New(rand.NewSource(7))
	tree := gossipbnb.RandomTree(r, gossipbnb.RandomTreeConfig{
		Size:         10001,
		Cost:         gossipbnb.CostModel{Mean: 0.05, Sigma: 0.5},
		BoundSpread:  2,
		FeasibleProb: 0.1,
	})
	st := tree.Stats()
	fmt.Printf("problem: %d nodes, %.0f s of uniprocessor work\n", st.Size, st.TotalCost)

	// Failure-free reference run.
	base := gossipbnb.Run(tree, gossipbnb.SimConfig{Procs: 32, Seed: 1, RecoveryQuiet: 15})
	fmt.Printf("failure-free: %.1f s on 32 processes (speedup %.1fx)\n",
		base.Time, st.TotalCost/base.Time)

	// Now the hostile run: rolling crashes of 24 of the 32 processes plus a
	// 60-second partition isolating a third of the pool.
	split, err := gossipbnb.ParseNemesis(fmt.Sprintf("partition:%g-%g:0,1,2,3,4,5,6,7,8,9",
		0.3*base.Time, 0.3*base.Time+60))
	if err != nil {
		log.Fatal(err)
	}
	cfg := gossipbnb.SimConfig{Procs: 32, Seed: 1, RecoveryQuiet: 15, Nemesis: split}
	restarts := 0
	for i := 0; i < 24; i++ {
		c := gossipbnb.Crash{
			// Crash every ~4% of the run, starting at 10%.
			Time: (0.10 + 0.035*float64(i)) * base.Time,
			Node: 31 - i,
		}
		if i%3 == 0 {
			// Every third machine reboots ~20% of the run later and rejoins
			// with an empty table, rebuilding purely from gossip.
			c.Restart = c.Time + 0.2*base.Time
			restarts++
		}
		cfg.Crashes = append(cfg.Crashes, c)
	}
	fmt.Printf("scheduling 24 crashes, of which %d machines restart\n", restarts)
	res := gossipbnb.Run(tree, cfg)
	fmt.Printf("hostile run: terminated=%v in %.1f s (%.2fx the failure-free time)\n",
		res.Terminated, res.Time, res.Time/base.Time)
	fmt.Printf("             optimum correct=%v, %d redundant expansions (%.1f%% of the tree)\n",
		res.OptimumOK, res.Redundant, 100*float64(res.Redundant)/float64(st.Size))
	plans, regions := res.Met.TotalRecoveries()
	fmt.Printf("             %d recovery plans re-created %d regions, %d messages cut by the partition\n",
		plans, regions, res.Net.Cut)

	if !res.Terminated || !res.OptimumOK {
		log.SetFlags(0)
		log.Println("FAILURE: the run did not survive the scenario")
		os.Exit(1)
	}
	fmt.Println("the pool survived 24 crashes and a partition with the solution intact")
}
