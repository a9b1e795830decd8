package bnb

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Knapsack is a 0/1 knapsack instance used as the realistic workload behind
// the paper's "real problem" trees. The engine minimizes, so the instance
// exposes the negated value: minimizing -(packed value) maximizes the packed
// value. Branching fixes one item per level — item i maps to condition
// variable x(i+1) — with branch 0 = skip, branch 1 = take.
type Knapsack struct {
	Values   []float64
	Weights  []float64
	Capacity float64
	order    []int // item indices sorted by value density, for the LP bound
}

// NewKnapsack builds an instance. Items are branched in the given order;
// the LP relaxation bound greedily fills by value/weight density.
func NewKnapsack(values, weights []float64, capacity float64) (*Knapsack, error) {
	if len(values) != len(weights) {
		return nil, fmt.Errorf("bnb: %d values but %d weights", len(values), len(weights))
	}
	for i, w := range weights {
		if w <= 0 || values[i] < 0 {
			return nil, fmt.Errorf("bnb: item %d has weight %g, value %g", i, w, values[i])
		}
	}
	k := &Knapsack{
		Values:   append([]float64(nil), values...),
		Weights:  append([]float64(nil), weights...),
		Capacity: capacity,
	}
	k.order = make([]int, len(values))
	for i := range k.order {
		k.order[i] = i
	}
	sort.Slice(k.order, func(a, b int) bool {
		return values[k.order[a]]/weights[k.order[a]] > values[k.order[b]]/weights[k.order[b]]
	})
	return k, nil
}

// RandomKnapsack generates a weakly correlated instance of n items, the class
// that produces deep, irregular B&B trees (capacity = half the total weight).
func RandomKnapsack(r *rand.Rand, n int) *Knapsack {
	values := make([]float64, n)
	weights := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		weights[i] = 1 + math.Floor(r.Float64()*100)
		// Weakly correlated: value near weight with ±20 noise.
		values[i] = math.Max(1, weights[i]+math.Floor(r.Float64()*41)-20)
		total += weights[i]
	}
	k, err := NewKnapsack(values, weights, math.Floor(total/2))
	if err != nil {
		panic(err) // unreachable: generated inputs are valid by construction
	}
	return k
}

// Root returns the root subproblem (no items decided).
func (k *Knapsack) Root() Subproblem {
	return &knapState{k: k, next: 0, room: k.Capacity, value: 0}
}

// Best converts an engine Result on this instance back to the maximization
// objective: the total packed value.
func (k *Knapsack) Best(res Result) float64 { return -res.Value }

// knapState is a partial assignment: items [0, next) are decided.
type knapState struct {
	k     *Knapsack
	next  int
	room  float64 // remaining capacity
	value float64 // packed value so far
}

// Bound is the negated LP-relaxation upper bound: greedy fractional fill of
// the remaining capacity by the undecided items in density order.
func (s *knapState) Bound() float64 {
	if s.room < 0 {
		return math.Inf(1)
	}
	room, val := s.room, s.value
	for _, i := range s.k.order {
		if i < s.next {
			continue // already decided
		}
		w := s.k.Weights[i]
		if w <= room {
			room -= w
			val += s.k.Values[i]
		} else {
			val += s.k.Values[i] * room / w
			break
		}
	}
	return -val
}

// Feasible reports a complete assignment's value.
func (s *knapState) Feasible() (float64, bool) {
	if s.room < 0 {
		return math.Inf(1), false
	}
	if s.next == len(s.k.Values) {
		return -s.value, true
	}
	return 0, false
}

// Branch fixes item s.next: branch 0 skips it, branch 1 takes it. Both
// children come from one allocation.
func (s *knapState) Branch() (uint32, Subproblem, Subproblem, bool) {
	if s.room < 0 || s.next >= len(s.k.Values) {
		return 0, nil, nil, false
	}
	i := s.next
	kids := &[2]knapState{
		{k: s.k, next: i + 1, room: s.room, value: s.value},
		{k: s.k, next: i + 1, room: s.room - s.k.Weights[i], value: s.value + s.k.Values[i]},
	}
	return uint32(i + 1), &kids[0], &kids[1], true
}
