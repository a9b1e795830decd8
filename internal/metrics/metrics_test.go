package metrics

import (
	"math"
	"testing"
)

func TestBreakdownAccounting(t *testing.T) {
	var b Breakdown
	b.Add(BB, 10)
	b.Add(Comm, 2)
	b.Add(Contract, 1)
	b.Add(LB, 3)
	b.Add(Idle, 4)
	if b.Total() != 20 {
		t.Errorf("Total = %g, want 20", b.Total())
	}
	if got := b.Percent(BB); math.Abs(got-50) > 1e-9 {
		t.Errorf("Percent(BB) = %g, want 50", got)
	}
	if b.Get(LB) != 3 {
		t.Errorf("Get(LB) = %g", b.Get(LB))
	}
}

func TestBreakdownNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(-1) did not panic")
		}
	}()
	var b Breakdown
	b.Add(BB, -1)
}

func TestBreakdownEmptyPercent(t *testing.T) {
	var b Breakdown
	if b.Percent(BB) != 0 {
		t.Error("Percent of empty breakdown not 0")
	}
}

func TestBreakdownMerge(t *testing.T) {
	var a, b Breakdown
	a.Add(BB, 1)
	b.Add(BB, 2)
	b.Add(Idle, 5)
	a.Merge(&b)
	if a.Get(BB) != 3 || a.Get(Idle) != 5 {
		t.Errorf("Merge wrong: BB=%g Idle=%g", a.Get(BB), a.Get(Idle))
	}
}

func TestActivityString(t *testing.T) {
	names := map[Activity]string{
		BB: "BB time", Comm: "Communication time", Contract: "List Contraction time",
		LB: "LB time", Idle: "Idle time",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
	if Activity(99).String() == "" {
		t.Error("unknown activity has empty String")
	}
}

func TestNodeObserveTable(t *testing.T) {
	var n Node
	n.ObserveTable(100)
	n.ObserveTable(50)
	n.ObserveTable(150)
	if n.PeakTableSize != 150 {
		t.Errorf("PeakTableSize = %d, want 150", n.PeakTableSize)
	}
}

func TestSystemStorage(t *testing.T) {
	s := NewSystem(3)
	s.Nodes[0].ObserveTable(100)
	s.Nodes[1].ObserveTable(200)
	s.Nodes[2].ObserveTable(300)
	s.ObserveUnique(250)
	s.ObserveUnique(240) // peak keeps the max
	if s.TotalStorage() != 600 {
		t.Errorf("TotalStorage = %d", s.TotalStorage())
	}
	if s.RedundantStorage() != 350 {
		t.Errorf("RedundantStorage = %d, want 350", s.RedundantStorage())
	}
}

func TestSystemRedundantClamped(t *testing.T) {
	s := NewSystem(1)
	s.Nodes[0].ObserveTable(10)
	s.ObserveUnique(50) // union larger than the lone replica (possible early on)
	if s.RedundantStorage() != 0 {
		t.Errorf("RedundantStorage = %d, want 0", s.RedundantStorage())
	}
}

func TestSystemCounters(t *testing.T) {
	s := NewSystem(2)
	s.Nodes[0].RecoveryPlans, s.Nodes[0].Recoveries = 1, 3
	s.Nodes[1].RecoveryPlans, s.Nodes[1].Recoveries = 2, 4
	if plans, regions := s.TotalRecoveries(); plans != 3 || regions != 7 {
		t.Errorf("TotalRecoveries = %d plans, %d regions; want 3, 7", plans, regions)
	}
	s.Nodes[0].Add(BB, 4)
	s.Nodes[1].Add(BB, 6)
	if got := s.AggregateBreakdown().Get(BB); got != 10 {
		t.Errorf("AggregateBreakdown BB = %g", got)
	}
}

func TestMB(t *testing.T) {
	if MB(2_500_000) != 2.5 {
		t.Errorf("MB = %g", MB(2_500_000))
	}
}

func TestWorkOverhead(t *testing.T) {
	var b Breakdown
	b.Add(BB, 10)
	b.Add(Comm, 1)
	b.Add(Contract, 2)
	b.Add(LB, 3)
	b.Add(Idle, 100) // neither work nor overhead
	if b.Work() != 10 {
		t.Errorf("Work = %g", b.Work())
	}
	if b.Overhead() != 6 {
		t.Errorf("Overhead = %g", b.Overhead())
	}
}

func TestMultiInstanceDimension(t *testing.T) {
	m := &Multi{Systems: []*System{NewSystem(2), NewSystem(2), NewSystem(2)}}
	m.At(0).Nodes[0].Add(BB, 5)
	m.At(1).Nodes[1].Add(Comm, 2)
	m.At(2).Nodes[0].Add(BB, 1)
	if got := m.At(0).AggregateBreakdown().Work(); got != 5 {
		t.Errorf("instance 0 work = %g", got)
	}
	if got := m.At(1).AggregateBreakdown().Overhead(); got != 2 {
		t.Errorf("instance 1 overhead = %g", got)
	}
	agg := m.AggregateBreakdown()
	if agg.Work() != 6 || agg.Overhead() != 2 {
		t.Errorf("aggregate = work %g, overhead %g", agg.Work(), agg.Overhead())
	}
}
