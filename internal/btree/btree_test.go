package btree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/code"
	"gossipbnb/internal/protocol"
)

func testRandom(seed int64, size int) *Tree {
	r := rand.New(rand.NewSource(seed))
	return Random(r, RandomConfig{
		Size:         size,
		Cost:         CostModel{Mean: 0.01, Sigma: 0.5},
		BoundSpread:  1,
		FeasibleProb: 0.1,
	})
}

func TestRandomValid(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tr := testRandom(seed, 501)
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if tr.Size() < 501 {
			t.Errorf("seed %d: size %d < 501", seed, tr.Size())
		}
		s := tr.Stats()
		if s.Feasible == 0 {
			t.Errorf("seed %d: no feasible node", seed)
		}
		if math.IsInf(s.Optimum, 1) {
			t.Errorf("seed %d: no optimum", seed)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, b := testRandom(42, 301), testRandom(42, 301)
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatal("sizes differ for identical seed")
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("node %d differs", i)
		}
	}
}

func TestLocate(t *testing.T) {
	tr := testRandom(1, 201)
	// Every node must be locatable by its own code.
	for idx := int32(0); idx < int32(tr.Size()); idx++ {
		c, ok := tr.CodeOf(idx)
		if !ok {
			t.Fatalf("CodeOf(%d) failed", idx)
		}
		got, ok := tr.Locate(c)
		if !ok || got != idx {
			t.Fatalf("Locate(CodeOf(%d)) = %d, %v", idx, got, ok)
		}
	}
}

// TestExpanderOutcome: every interior node's Outcome names the two recorded
// children under their own codes, for two allocations — the paired child
// codes and the Children slice.
func TestExpanderOutcome(t *testing.T) {
	tr := testRandom(3, 201)
	e := Expander{Tree: tr}
	var interior protocol.Item
	for idx := int32(0); idx < int32(tr.Size()); idx++ {
		c, _ := tr.CodeOf(idx)
		it, ok := e.Locate(c)
		if !ok || it.Ref != idx {
			t.Fatalf("Locate(CodeOf(%d)) = %+v, %v", idx, it, ok)
		}
		out := e.Outcome(it)
		if n := tr.Nodes[idx]; n.Leaf() != (len(out.Children) == 0) || out.Feasible != n.Feasible {
			t.Fatalf("node %d: Outcome %+v disagrees with the record %+v", idx, out, n)
		}
		for b, ch := range out.Children {
			if want := c.Child(tr.Nodes[idx].BranchVar, uint8(b)); !ch.Code.Equal(want) || ch.Ref != tr.Nodes[idx].Children[b] {
				t.Fatalf("node %d child %d = %v@%d, want %v@%d", idx, b, ch.Code, ch.Ref, want, tr.Nodes[idx].Children[b])
			}
			interior = it
		}
	}
	if got := testing.AllocsPerRun(100, func() { e.Outcome(interior) }); got != 2 {
		t.Errorf("Outcome allocates %.0f, want 2 (paired child codes + Children)", got)
	}
}

func TestLocateRejectsForeignCodes(t *testing.T) {
	tr := testRandom(2, 101)
	// A code with a bogus variable at the root must not resolve.
	bad := code.Root().Child(999999, 0)
	if _, ok := tr.Locate(bad); ok {
		t.Error("Locate accepted a code with a wrong branch variable")
	}
	// A code descending past a leaf must not resolve.
	c, _ := tr.CodeAt()
	idx := int32(0)
	for !tr.Nodes[idx].Leaf() {
		c = c.Child(tr.Nodes[idx].BranchVar, 0)
		idx = tr.Nodes[idx].Children[0]
	}
	deep := c.Child(123456, 1)
	if _, ok := tr.Locate(deep); ok {
		t.Error("Locate accepted a code descending past a leaf")
	}
}

func TestSequentialFindsOptimum(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		tr := testRandom(seed, 801)
		want := tr.Stats().Optimum
		res := Sequential(tr)
		if res.Optimum != want {
			t.Errorf("seed %d: Sequential optimum %g, tree optimum %g", seed, res.Optimum, want)
		}
		if res.Expanded > tr.Size() {
			t.Errorf("seed %d: expanded %d > size %d", seed, res.Expanded, tr.Size())
		}
		if res.Expanded == 0 || res.Work <= 0 {
			t.Errorf("seed %d: empty replay: %+v", seed, res)
		}
	}
}

func TestSequentialPrunes(t *testing.T) {
	// With a generous bound spread, best-first replay should expand fewer
	// nodes than the full tree on most instances.
	pruned := 0
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr := Random(r, RandomConfig{
			Size:         2001,
			Cost:         CostModel{Mean: 0.01},
			BoundSpread:  5,
			FeasibleProb: 0.3,
		})
		if Sequential(tr).Expanded < tr.Size() {
			pruned++
		}
	}
	if pruned < 8 {
		t.Errorf("pruning helped on only %d/10 trees", pruned)
	}
}

func TestFromKnapsack(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	k := bnb.RandomKnapsack(r, 12)
	tr := FromKnapsack(k, r, CostModel{Mean: 0.01, Sigma: 0.5}, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Feasible == 0 {
		t.Fatal("knapsack tree has no feasible node")
	}
	// The replayed optimum must match the engine's direct answer.
	direct := bnb.Solve(k.Root(), bnb.Options{})
	replay := Sequential(tr)
	if math.Abs(replay.Optimum-direct.Value) > 1e-9 {
		t.Errorf("replayed optimum %g, engine %g", replay.Optimum, direct.Value)
	}
}

func TestFromKnapsackCapSeals(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	k := bnb.RandomKnapsack(r, 20)
	tr := FromKnapsack(k, r, CostModel{Mean: 0.01}, 500)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() > 500 {
		t.Errorf("size %d exceeds cap", tr.Size())
	}
	if tr.Stats().Feasible == 0 {
		t.Error("sealed tree has no feasible node")
	}
}

func TestStats(t *testing.T) {
	// Hand-built: root branches on x1 into two leaves; leaf 1 feasible.
	tr := &Tree{Nodes: []Node{
		{Bound: 0, Cost: 1, BranchVar: 1, Children: [2]int32{1, 2}},
		{Bound: 2, Cost: 2, Children: [2]int32{NoChild, NoChild}},
		{Bound: 3, Cost: 3, Feasible: true, Children: [2]int32{NoChild, NoChild}},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Size != 3 || s.Leaves != 2 || s.Feasible != 1 || s.Depth != 1 {
		t.Errorf("Stats = %+v", s)
	}
	if s.TotalCost != 6 || s.Optimum != 3 {
		t.Errorf("TotalCost = %g, Optimum = %g", s.TotalCost, s.Optimum)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	base := func() *Tree {
		return &Tree{Nodes: []Node{
			{Bound: 0, Cost: 1, BranchVar: 1, Children: [2]int32{1, 2}},
			{Bound: 1, Cost: 1, Children: [2]int32{NoChild, NoChild}},
			{Bound: 1, Cost: 1, Feasible: true, Children: [2]int32{NoChild, NoChild}},
		}}
	}
	cases := map[string]func(*Tree){
		"one child":      func(t *Tree) { t.Nodes[0].Children[1] = NoChild },
		"out of range":   func(t *Tree) { t.Nodes[0].Children[1] = 99 },
		"self reference": func(t *Tree) { t.Nodes[0].Children[1] = 0 },
		"bound decrease": func(t *Tree) { t.Nodes[1].Bound = -5 },
		"zero cost":      func(t *Tree) { t.Nodes[2].Cost = 0 },
		"double parent":  func(t *Tree) { t.Nodes[0].Children[1] = 1 },
		"nan bound":      func(t *Tree) { t.Nodes[1].Bound = math.NaN() },
	}
	for name, corrupt := range cases {
		tr := base()
		corrupt(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupt tree", name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("baseline tree invalid: %v", err)
	}
}

func TestPropLocateInverseOfCodeOf(t *testing.T) {
	f := func(seed int64) bool {
		tr := testRandom(seed, 101)
		r := rand.New(rand.NewSource(seed ^ 0x5a5a))
		idx := int32(r.Intn(tr.Size()))
		c, ok := tr.CodeOf(idx)
		if !ok {
			return false
		}
		got, ok := tr.Locate(c)
		return ok && got == idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropSequentialOptimumMatchesStats(t *testing.T) {
	f := func(seed int64) bool {
		tr := testRandom(seed, 401)
		return Sequential(tr).Optimum == tr.Stats().Optimum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPaperWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size trees in short mode")
	}
	small := PaperSmall(1)
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	if s := small.Size(); s < 3500 || s > 3600 {
		t.Errorf("PaperSmall size = %d, want ≈3500", s)
	}
	tiny := Tiny(1)
	if err := tiny.Validate(); err != nil {
		t.Fatal(err)
	}
	st := small.Stats()
	if st.MeanCost < 0.005 || st.MeanCost > 0.02 {
		t.Errorf("PaperSmall mean cost = %g, want ≈0.01", st.MeanCost)
	}
}

func TestCostModelMean(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	cm := CostModel{Mean: 3.47, Sigma: 0.6}
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		sum += cm.draw(r)
	}
	got := sum / float64(n)
	if math.Abs(got-3.47) > 0.15 {
		t.Errorf("empirical mean = %g, want ≈3.47", got)
	}
	if c := (CostModel{Mean: 2}).draw(r); c != 2 {
		t.Errorf("sigma=0 draw = %g, want exactly 2", c)
	}
}

func BenchmarkRandomGen(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		testRandom(int64(i), 10001)
	}
}

func BenchmarkSequentialReplay(b *testing.B) {
	tr := testRandom(1, 20001)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sequential(tr)
	}
}
