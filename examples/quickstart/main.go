// Quickstart: solve a knapsack with the sequential engine, record its basic
// tree, then solve the same problem with the simulated distributed algorithm
// and check both agree; it exits non-zero if they do not.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"gossipbnb"
)

func main() {
	// A 0/1 knapsack: maximize packed value within capacity 50.
	k, err := gossipbnb.NewKnapsack(
		[]float64{60, 100, 120, 70, 90}, // values
		[]float64{10, 20, 30, 15, 25},   // weights
		50,
	)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Sequential branch and bound (best-first).
	res := gossipbnb.Solve(k.Root(), gossipbnb.SolveOptions{})
	fmt.Printf("sequential: best value %.0f after expanding %d nodes\n",
		k.Best(res), res.Expanded)
	fmt.Printf("            optimal node code: %v\n", res.Solution)

	// 2. Record the basic tree (the paper's instrumented-run artifact).
	r := rand.New(rand.NewSource(1))
	tree := gossipbnb.KnapsackTree(k, r, gossipbnb.CostModel{Mean: 0.05, Sigma: 0.3}, 0)
	st := tree.Stats()
	fmt.Printf("basic tree: %d nodes, %.1fs of uniprocessor work, optimum %.0f\n",
		st.Size, st.TotalCost, -st.Optimum)

	// 3. Solve it with the decentralized fault-tolerant algorithm on four
	//    simulated processes (virtual time: the run is instant for us).
	sim := gossipbnb.Run(tree, gossipbnb.SimConfig{Procs: 4, Seed: 42, Prune: true})
	fmt.Printf("distributed: terminated=%v in %.2fs of virtual time, optimum %.0f (correct=%v)\n",
		sim.Terminated, sim.Time, -sim.Optimum, sim.OptimumOK)
	fmt.Printf("             %d expansions (%d redundant), %d messages, %d bytes\n",
		sim.Expanded, sim.Redundant, sim.Net.Sent, sim.Net.Bytes)
	if !sim.Terminated || !sim.OptimumOK || -sim.Optimum != k.Best(res) {
		log.Fatal("the distributed optimum does not match the sequential one")
	}
}
