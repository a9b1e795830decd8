package bnb

import (
	"fmt"
	"math"
	"math/rand"
)

// QAP is a quadratic assignment instance: assign n facilities to n locations
// minimizing Σᵢⱼ Flow[i][j]·Dist[π(i)][π(j)]. The paper's motivation cites
// exactly this problem class (Hahn et al.'s QAP branch-and-bound, ref [16])
// as the kind of search that needs hundreds of processors for months.
//
// Branching is binarized to fit the paper's encoding: each decision fixes or
// forbids one (facility, location) pair, so a subproblem is a sequence of
// ⟨pair, 0|1⟩ decisions. Condition variable x(i·n+j+1) means "facility i at
// location j"; branch 1 assigns it, branch 0 forbids it.
type QAP struct {
	Flow [][]float64
	Dist [][]float64
	n    int
}

// NewQAP validates and builds an instance. Flow and Dist must be square,
// same order, with non-negative entries (non-negativity is what makes the
// partial-cost bound admissible).
func NewQAP(flow, dist [][]float64) (*QAP, error) {
	n := len(flow)
	if n == 0 || len(dist) != n {
		return nil, fmt.Errorf("bnb: QAP needs equal-order matrices, got %d and %d", n, len(dist))
	}
	for i := 0; i < n; i++ {
		if len(flow[i]) != n || len(dist[i]) != n {
			return nil, fmt.Errorf("bnb: QAP row %d is not length %d", i, n)
		}
		for j := 0; j < n; j++ {
			if flow[i][j] < 0 || dist[i][j] < 0 {
				return nil, fmt.Errorf("bnb: QAP entries must be non-negative")
			}
		}
	}
	if n > maxQAPOrder {
		return nil, fmt.Errorf("bnb: QAP order %d exceeds the %d-facility encoding limit", n, maxQAPOrder)
	}
	return &QAP{Flow: flow, Dist: dist, n: n}, nil
}

// RandomQAP generates a symmetric instance of order n with integer flows and
// distances in [0, 10).
func RandomQAP(r *rand.Rand, n int) *QAP {
	flow := make([][]float64, n)
	dist := make([][]float64, n)
	for i := 0; i < n; i++ {
		flow[i] = make([]float64, n)
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			f := math.Floor(r.Float64() * 10)
			d := math.Floor(r.Float64() * 10)
			flow[i][j], flow[j][i] = f, f
			dist[i][j], dist[j][i] = d, d
		}
	}
	q, err := NewQAP(flow, dist)
	if err != nil {
		panic(err) // unreachable: generated inputs are valid by construction
	}
	return q
}

// Order returns n, the number of facilities.
func (q *QAP) Order() int { return q.n }

// Root returns the root subproblem (nothing assigned or forbidden).
func (q *QAP) Root() Subproblem {
	s := &qapState{q: q}
	for i := range s.loc {
		s.loc[i] = -1
	}
	return s
}

// maxQAPOrder is the encoding limit: a location set is a uint32 bitmask.
const maxQAPOrder = 30

// qapState is a partial assignment with per-facility forbidden-location sets.
// Its arrays are fixed at the encoding limit, so a state is one flat object
// and Branch carves both children from a single allocation; only the first
// q.n entries of each array are meaningful.
type qapState struct {
	q         *QAP
	loc       [maxQAPOrder]int8   // loc[i] = location of facility i, -1 if unassigned
	forbidden [maxQAPOrder]uint32 // forbidden[i] = locations facility i may not use
	taken     uint32              // bitmask of occupied locations
	cost      float64             // interaction cost among assigned facilities
}

// nextFacility returns the lowest-index unassigned facility, or -1.
func (s *qapState) nextFacility() int {
	for i, l := range s.loc[:s.q.n] {
		if l < 0 {
			return i
		}
	}
	return -1
}

// available returns the locations facility i may still take.
func (s *qapState) available(i int) uint32 {
	full := uint32(1)<<s.q.n - 1
	return full &^ s.taken &^ s.forbidden[i]
}

// attach returns the interaction cost of placing facility i at location l
// against the already-assigned facilities.
func (s *qapState) attach(i, l int) float64 {
	c := 0.0
	for k, lk := range s.loc[:s.q.n] {
		if lk < 0 {
			continue
		}
		c += s.q.Flow[i][k]*s.q.Dist[l][lk] + s.q.Flow[k][i]*s.q.Dist[lk][l]
	}
	return c
}

// Bound is admissible: the fixed interaction cost plus, for each unassigned
// facility, the cheapest attachment to the assigned set. Interactions among
// unassigned facilities are bounded below by zero (all entries are
// non-negative).
func (s *qapState) Bound() float64 {
	lb := s.cost
	for i, l := range s.loc[:s.q.n] {
		if l >= 0 {
			continue
		}
		avail := s.available(i)
		if avail == 0 {
			return math.Inf(1) // facility has nowhere to go: infeasible
		}
		best := math.Inf(1)
		for j := 0; j < s.q.n; j++ {
			if avail&(1<<j) != 0 {
				if c := s.attach(i, j); c < best {
					best = c
				}
			}
		}
		lb += best
	}
	return lb
}

// Feasible reports the objective of a complete assignment.
func (s *qapState) Feasible() (float64, bool) {
	if s.nextFacility() != -1 {
		return 0, false
	}
	return s.cost, true
}

// Branch picks the first unassigned facility and its cheapest available
// location deterministically, then fixes (branch 1) or forbids (branch 0)
// that pair.
func (s *qapState) Branch() (uint32, Subproblem, Subproblem, bool) {
	i := s.nextFacility()
	if i < 0 {
		return 0, nil, nil, false
	}
	avail := s.available(i)
	if avail == 0 {
		return 0, nil, nil, false // infeasible: fathom
	}
	bestJ, bestC := -1, math.Inf(1)
	for j := 0; j < s.q.n; j++ {
		if avail&(1<<j) != 0 {
			if c := s.attach(i, j); c < bestC {
				bestJ, bestC = j, c
			}
		}
	}
	// Both children in one object: branch 0 forbids the pair, branch 1
	// assigns facility i to location bestJ.
	kids := &[2]qapState{*s, *s}
	forbid, take := &kids[0], &kids[1]
	forbid.forbidden[i] |= 1 << bestJ
	take.loc[i] = int8(bestJ)
	take.taken |= 1 << bestJ
	take.cost += bestC
	v := uint32(i*s.q.n + bestJ + 1)
	return v, forbid, take, true
}
