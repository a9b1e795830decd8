// Package dib implements DIB — Finkel and Manber's Distributed
// Implementation of Backtracking (ACM TOPLAS 1987) — as the baseline the
// paper compares against (§3, §5.5). DIB is decentralized and fault
// tolerant, but its failure-recovery bookkeeping is hierarchical:
//
//   - every machine remembers the problems it is responsible for and the
//     machines to which it delegated subproblems;
//   - completion of a problem is reported to the machine the problem came
//     from; a donor whose delegation stays unconfirmed past a timeout redoes
//     the whole delegated subtree itself;
//   - the root of the responsibility hierarchy (machine 0, which adopts the
//     original problem) must be reliable: if it fails, nobody is responsible
//     for the root problem and the computation cannot terminate.
//
// Contrast with the paper's mechanism (internal/dbnb): there every process
// is equally responsible, recovery granularity is individual tree codes
// rather than whole delegated subtrees, and the failure of any subset of
// processes — including the one holding the original problem — is survivable
// as long as one process remains.
package dib

import (
	"gossipbnb/internal/code"
	"gossipbnb/internal/sim"
)

// Config parameterizes a DIB run over the paper's latency model. Zero fields
// default like dbnb's.
type Config struct {
	Procs int
	Seed  int64
	Loss  float64
	// Prune enables incumbent-based elimination.
	Prune bool
	// RedoTimeout is how long a donor waits for a delegation's completion
	// report before redoing the delegated subtree itself.
	RedoTimeout float64
	// Crashes schedules crash-stop failures. Crashing machine 0 violates
	// DIB's reliable-root assumption; the run then fails to terminate,
	// which is precisely the comparison the paper draws.
	Crashes []Crash
	MaxTime float64
}

// Crash schedules a crash-stop failure.
type Crash struct {
	Time float64
	Node int
}

// The work-sharing thresholds and the request pacing are dbnb's defaults: a
// process grants work only from a pool of minPoolToShare problems, at most
// maxShare per grant, waits requestTimeout for an answer and retryDelay
// before it asks again.
const (
	minPoolToShare = 2
	maxShare       = 16
	requestTimeout = 3
	retryDelay     = 1
)

func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = 1
	}
	if c.RedoTimeout <= 0 {
		c.RedoTimeout = 30
	}
	if c.MaxTime <= 0 {
		c.MaxTime = 1e9
	}
	return c
}

// Result summarizes a DIB run.
type Result struct {
	Terminated bool
	Time       float64 // when machine 0 confirmed the root problem
	Optimum    float64
	OptimumOK  bool
	Expanded   int
	Unique     int
	Redundant  int
	Redos      int // delegations redone by their donors
	Net        sim.NetStats
}

// --- messages ---------------------------------------------------------------

type msgRequest struct{ incumbent float64 }

func (msgRequest) Size() int { return 9 }

type msgDeny struct{ incumbent float64 }

func (msgDeny) Size() int { return 9 }

type msgGrant struct {
	problems  []grantProblem
	incumbent float64
}

type grantProblem struct {
	id int64 // delegation id at the donor
	c  code.Code
}

func (m msgGrant) Size() int {
	n := 9
	for _, p := range m.problems {
		n += 8 + p.c.WireSize()
	}
	return n
}

// msgDone confirms completion of delegation id to its donor.
type msgDone struct {
	id        int64
	incumbent float64
}

func (msgDone) Size() int { return 17 }

// msgFinished is machine 0's termination broadcast.
type msgFinished struct{ incumbent float64 }

func (msgFinished) Size() int { return 9 }

// --- node state ---------------------------------------------------------------

// adoption is a problem this machine is responsible for solving.
type adoption struct {
	id          int64 // delegation id at the donor (0 for the root problem)
	donor       sim.NodeID
	root        code.Code
	outstanding int // local active nodes + unconfirmed re-delegations
}

// delegation is a problem this machine gave away and still tracks.
type delegation struct {
	c       code.Code
	idx     int32
	to      sim.NodeID
	adopt   *adoption // whose outstanding count the confirmation decrements
	since   float64
	expired bool
}

// poolItem is one active search node, tagged with its adoption.
type poolItem struct {
	c     code.Code
	idx   int32
	bound float64
	adopt *adoption
}

type pool []poolItem

func (p pool) Len() int            { return len(p) }
func (p pool) Less(i, j int) bool  { return p[i].bound < p[j].bound }
func (p pool) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pool) Push(x interface{}) { *p = append(*p, x.(poolItem)) }
func (p *pool) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	old[n-1] = poolItem{}
	*p = old[:n-1]
	return it
}
