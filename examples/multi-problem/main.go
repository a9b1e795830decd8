// Multi-problem: one TCP cluster, many problems. The cluster boots solving a
// knapsack, a QAP is submitted mid-run and multiplexes over the same four
// processes and sockets — each instance's traffic tagged with its wire
// InstanceID, each instance running the paper's protocol independently among
// its own per-process cores — and then one process crashes while both are in
// flight. Both optima must come out equal to their sequential solves: the
// fault-tolerance mechanism is per-problem by construction, so multiplexing
// adds tenancy without coupling failures across instances.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"gossipbnb"
)

func main() {
	r := rand.New(rand.NewSource(42))
	knap := gossipbnb.RandomKnapsack(r, 14)
	qap := gossipbnb.RandomQAP(r, 6)

	knapRef := gossipbnb.SolveProblem(knap)
	qapRef := gossipbnb.SolveProblem(qap)
	fmt.Printf("knapsack:14 sequential optimum %.6g (%d expansions)\n", knapRef.Value, knapRef.Expanded)
	fmt.Printf("qap:6      sequential optimum %.6g (%d expansions)\n", qapRef.Value, qapRef.Expanded)

	nw, err := gossipbnb.NewTCPNetwork(4)
	if err != nil {
		log.Fatal(err)
	}
	cl := gossipbnb.NewLiveProblemClusterRef(knap, knapRef, gossipbnb.LiveConfig{
		Nodes:         4,
		Seed:          42,
		Network:       nw,
		Prune:         true,
		RecoveryQuiet: 50 * time.Millisecond,
		Timeout:       120 * time.Second,
		// Hold the cluster open briefly once everything resolves: small
		// problems can finish before the submission below lands.
		Linger: time.Second,
	})
	resCh := make(chan gossipbnb.LiveResult, 1)
	go func() { resCh <- cl.Run() }()

	// Submit the QAP as soon as the cluster is up (Run sets the running flag
	// moments after it starts), then crash a process with both instances'
	// traffic multiplexed over the same sockets.
	var handle *gossipbnb.InstanceHandle
	for {
		h, err := cl.SubmitRef(qap, qapRef)
		if err == nil {
			handle = h
			break
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("submitted qap:6 mid-run as instance %d\n", handle.ID)
	time.Sleep(10 * time.Millisecond)
	cl.Crash(2)
	fmt.Println("crashed process 2 with both instances in flight")

	res := <-resCh
	fmt.Printf("boot knapsack: terminated=%v in %v, optimum %.6g (correct=%v)\n",
		res.Terminated, res.Elapsed.Round(time.Millisecond), res.Optimum, res.OptimumOK)
	qapOpt, qapOK := handle.Result()
	fmt.Printf("submitted qap: optimum %.6g (correct=%v), %d cluster expansions\n",
		qapOpt, qapOK, handle.Expanded())
	fmt.Printf("%d TCP messages, %d payload bytes\n", res.Net.Sent, res.Net.Bytes)

	if !res.Terminated || !res.OptimumOK || !qapOK {
		log.Fatal("multi-problem cluster failed the scenario")
	}
	fmt.Println("both problems solved concurrently over one cluster, through a crash")
}
