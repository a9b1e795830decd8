package ctree

// Property tests of the exact set against a map keyed by the encoded code,
// and its allocation guard. One driver, setOps, reads a byte string as
// operations on two sets and their references; the randomized test feeds it
// generated operation streams and FuzzSet feeds it the fuzzer's bytes.

import (
	"errors"
	"math/rand"
	"testing"

	"gossipbnb/internal/code"
)

// refSet is the reference: the set as a map from Code.Key, plus the member
// list, which decides refusal the way deterministic decomposition does — a
// code is refused when it and a member leave their common prefix on different
// variables.
type refSet struct {
	keys    map[string]bool
	members []code.Code
}

func newRefSet() *refSet { return &refSet{keys: map[string]bool{}} }

func (r *refSet) add(c code.Code) (present, refused bool) {
	if r.keys[c.Key()] {
		return true, false
	}
	for _, m := range r.members {
		if k := code.CommonPrefixLen(m, c); k < len(m) && k < len(c) && m[k].Var != c[k].Var {
			return false, true
		}
	}
	r.keys[c.Key()] = true
	r.members = append(r.members, c)
	return false, false
}

func (r *refSet) union(o *refSet) (added, refused int) {
	for _, c := range o.members {
		switch p, x := r.add(c); {
		case x:
			refused++
		case !p:
			added++
		}
	}
	return added, refused
}

// setOps drives two sets and their references through the operations data
// spells, failing at the first difference. Each operation is one byte, op,
// whose bit 2 picks the set it acts on:
//
//   - op%4 == 0: Reset;
//   - op%4 == 1: Union with the other set, or with itself when bit 3 is set;
//   - otherwise Add a code of n = next byte % 9 decisions, one per byte
//     after that: branch b&1 on variable depth+1 — or, one byte in four,
//     depth+2, a decision that mismatches every honest code through the same
//     vertex.
//
// At the end every member of each reference must read as present.
func setOps(t *testing.T, data []byte) {
	t.Helper()
	var sets [2]Set
	refs := [2]*refSet{newRefSet(), newRefSet()}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for step := 0; len(data) > 0; step++ {
		op := next()
		i := int(op >> 2 & 1)
		s, r := &sets[i], refs[i]
		switch op % 4 {
		case 0:
			s.Reset()
			refs[i] = newRefSet()
		case 1:
			o, ro := &sets[1-i], refs[1-i]
			if op&8 != 0 {
				o, ro = s, r
			}
			added, refused := s.Union(o)
			wantAdded, wantRefused := r.union(ro)
			if added != wantAdded || refused != wantRefused {
				t.Fatalf("step %d: Union = %d added, %d refused; reference %d, %d",
					step, added, refused, wantAdded, wantRefused)
			}
		default:
			c := make(code.Code, next()%9)
			for d := range c {
				b := next()
				c[d] = code.Decision{Var: uint32(d + 1), Branch: b & 1}
				if b&6 == 6 {
					c[d].Var++
				}
			}
			present, err := s.Add(c)
			wantPresent, wantRefused := r.add(c)
			var mismatch *VarMismatchError
			if (err != nil) != wantRefused || err != nil && !errors.As(err, &mismatch) {
				t.Fatalf("step %d: Add(%v) error %v, reference refused %v", step, c, err, wantRefused)
			}
			if present != wantPresent {
				t.Fatalf("step %d: Add(%v) present %v, reference %v", step, c, present, wantPresent)
			}
		}
		for j := range sets {
			if sets[j].Len() != len(refs[j].members) {
				t.Fatalf("step %d: set %d Len %d, reference %d", step, j, sets[j].Len(), len(refs[j].members))
			}
		}
	}
	for j := range sets {
		for _, c := range refs[j].members {
			if present, err := sets[j].Add(c); !present || err != nil {
				t.Fatalf("set %d lost member %v (present %v, error %v)", j, c, present, err)
			}
		}
	}
}

// TestPropSetMatchesReference runs setOps over random operation streams:
// codes of up to 8 decisions from one tree, so prefixes are shared and codes
// repeat, one decision in sixteen var-mismatched, and one operation in eight a
// Reset of a set already grown or a union, either way or with itself.
func TestPropSetMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		var data []byte
		for ops := 50 + r.Intn(450); ops > 0; ops-- {
			set := byte(r.Intn(2)) << 2
			switch r.Intn(16) {
			case 0:
				data = append(data, set)
			case 1:
				data = append(data, set|1|byte(r.Intn(2))<<3)
			default:
				n := r.Intn(9)
				data = append(data, set|2, byte(n))
				for ; n > 0; n-- {
					b := byte(r.Intn(2))
					if r.Intn(16) == 0 {
						b |= 6
					}
					data = append(data, b)
				}
			}
		}
		setOps(t, data)
	}
}

// TestSetRefusalLeavesSetUnchanged: a refused code changes nothing, not even
// the variable of a leaf vertex above the mismatch.
func TestSetRefusalLeavesSetUnchanged(t *testing.T) {
	var s Set
	a := code.Root().Child(1, 0).Child(2, 1)
	if present, err := s.Add(a); present || err != nil {
		t.Fatalf("Add(%v) = %v, %v", a, present, err)
	}
	bad := code.Root().Child(1, 0).Child(3, 1).Child(4, 0)
	var mismatch *VarMismatchError
	if _, err := s.Add(bad); !errors.As(err, &mismatch) || mismatch.Depth != 1 || mismatch.Want != 2 || mismatch.Got != 3 {
		t.Fatalf("Add(%v) error %v, want a mismatch at depth 1 (x2 held, x3 given)", bad, err)
	}
	if s.Len() != 1 || len(s.nodes) != 3 {
		t.Fatalf("after a refusal: Len %d, %d vertices; want 1, 3", s.Len(), len(s.nodes))
	}
	// The members' ancestors are not members.
	for _, c := range []code.Code{code.Root(), code.Root().Child(1, 0)} {
		if present, _ := s.Add(c); present {
			t.Fatalf("%v read as present before it was added", c)
		}
	}
}

// TestSetWarmAddAllocs: once its arena has grown, refilling a reset set —
// every code fresh — allocates nothing, and neither do repeats.
func TestSetWarmAddAllocs(t *testing.T) {
	leaves := counterLeaves(10)
	var codes []code.Code
	for _, c := range leaves {
		for d := range c {
			codes = append(codes, c[:d+1]) // every vertex once, as an expansion ledger books them
		}
	}
	var s Set
	for _, c := range codes {
		s.Add(c)
	}
	s.Reset()
	if a := testing.AllocsPerRun(10, func() {
		for _, c := range codes {
			s.Add(c)
		}
		s.Reset()
	}); a != 0 {
		t.Errorf("refilling a warm set: %.1f allocs per %d adds, want 0", a, len(codes))
	}
	for _, c := range codes {
		s.Add(c)
	}
	if a := testing.AllocsPerRun(10, func() {
		for _, c := range codes {
			s.Add(c)
		}
	}); a != 0 {
		t.Errorf("repeat adds: %.1f allocs per %d adds, want 0", a, len(codes))
	}
}

// FuzzSet runs setOps on the fuzzer's bytes. The seeds spell shared prefixes,
// a repeat, a var-mismatched code, a Reset and refill, and unions both ways
// and with itself.
func FuzzSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 0, 1, 0, 2, 3, 0, 1, 1, 2, 3, 0, 1, 0})  // shared prefix, a repeat
	f.Add([]byte{2, 3, 0, 0, 0, 2, 2, 0, 6, 2, 2, 1, 1})        // a mismatch at depth 1
	f.Add([]byte{2, 2, 1, 0, 0, 2, 2, 1, 0, 2, 2, 1, 1, 1})     // add, reset, refill
	f.Add([]byte{6, 3, 0, 1, 1, 2, 3, 0, 1, 0, 5, 1, 9, 13})    // unions both ways and with itself
	f.Add([]byte{6, 2, 0, 6, 2, 3, 0, 1, 0, 1, 2, 1, 6, 5, 14}) // a union that refuses
	f.Fuzz(func(t *testing.T, data []byte) { setOps(t, data) })
}
