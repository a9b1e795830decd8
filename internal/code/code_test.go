package code

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

func mk(pairs ...uint32) Code {
	// mk(v0, b0, v1, b1, ...) builds a code from flat pairs.
	if len(pairs)%2 != 0 {
		panic("mk: odd arg count")
	}
	c := Root()
	for i := 0; i < len(pairs); i += 2 {
		c = c.Child(pairs[i], uint8(pairs[i+1]))
	}
	return c
}

func TestRoot(t *testing.T) {
	r := Root()
	if !r.IsRoot() {
		t.Error("Root().IsRoot() = false")
	}
	if r.Depth() != 0 {
		t.Errorf("Root().Depth() = %d, want 0", r.Depth())
	}
	if got := r.String(); got != "()" {
		t.Errorf("Root().String() = %q, want ()", got)
	}
}

func TestChildParent(t *testing.T) {
	c := mk(1, 0, 2, 1, 5, 0)
	if c.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", c.Depth())
	}
	p := c.Parent()
	want := mk(1, 0, 2, 1)
	if !p.Equal(want) {
		t.Errorf("Parent = %v, want %v", p, want)
	}
	if c.Leaf() != (Decision{Var: 5, Branch: 0}) {
		t.Errorf("Leaf = %v", c.Leaf())
	}
}

func TestPaperExampleString(t *testing.T) {
	// Figure 1 of the paper: (<X1,0>,<X2,1>,<X5,0>).
	c := mk(1, 0, 2, 1, 5, 0)
	if got := c.String(); got != "(<x1,0>,<x2,1>,<x5,0>)" {
		t.Errorf("String() = %q", got)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Code
		ok   bool
	}{
		{"()", Root(), true},
		{" ( ) ", Root(), true},
		{"(<x1,0>)", mk(1, 0), true},
		{"(<x1,0>,<x2,1>,<x5,0>)", mk(1, 0, 2, 1, 5, 0), true},
		{"( <x1,0> , <x2,1> )", mk(1, 0, 2, 1), true},
		{"<x1,0>", nil, false},
		{"", nil, false},
		{"(<x1,2>)", nil, false},
		{"(<y1,0>)", nil, false},
	}
	for _, tc := range cases {
		got, err := Parse(tc.in)
		if tc.ok && err != nil {
			t.Errorf("Parse(%q) error: %v", tc.in, err)
			continue
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tc.in)
			}
			continue
		}
		if !got.Equal(tc.want) {
			t.Errorf("Parse(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, c := range []Code{Root(), mk(0, 0), mk(7, 1, 3, 0, 9, 1, 2, 0)} {
		got, err := Parse(c.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.String(), err)
		}
		if !got.Equal(c) {
			t.Errorf("round trip %v -> %v", c, got)
		}
	}
}

func TestSibling(t *testing.T) {
	c := mk(1, 0, 2, 1)
	s := c.Sibling()
	if !s.Equal(mk(1, 0, 2, 0)) {
		t.Errorf("Sibling = %v", s)
	}
	if !c.SiblingOf(s) || !s.SiblingOf(c) {
		t.Error("SiblingOf not symmetric")
	}
	if c.SiblingOf(c) {
		t.Error("code is its own sibling")
	}
	// Same depth, same final var, but differing earlier decision: not siblings.
	d := mk(1, 1, 2, 0)
	if c.SiblingOf(d) {
		t.Errorf("%v and %v reported as siblings", c, d)
	}
	// Same prefix, differing final var: not siblings.
	e := mk(1, 0, 3, 0)
	if c.SiblingOf(e) {
		t.Errorf("%v and %v reported as siblings", c, e)
	}
}

func TestSiblingPanicsOnRoot(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sibling of root did not panic")
		}
	}()
	Root().Sibling()
}

func TestParentPanicsOnRoot(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Parent of root did not panic")
		}
	}()
	Root().Parent()
}

func TestAncestor(t *testing.T) {
	root := Root()
	a := mk(1, 0)
	b := mk(1, 0, 2, 1)
	c := mk(1, 1)
	if !root.IsAncestorOf(a) || !root.IsAncestorOf(b) {
		t.Error("root should be ancestor of all non-root codes")
	}
	if !a.IsAncestorOf(b) {
		t.Errorf("%v should be ancestor of %v", a, b)
	}
	if a.IsAncestorOf(c) {
		t.Errorf("%v should not be ancestor of %v", a, c)
	}
	if b.IsAncestorOf(a) {
		t.Error("descendant reported as ancestor")
	}
	if a.IsAncestorOf(a) {
		t.Error("code reported as its own ancestor (must be proper)")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Code
		want int
	}{
		{Root(), Root(), 0},
		{Root(), mk(1, 0), -1},
		{mk(1, 0), Root(), 1},
		{mk(1, 0), mk(1, 1), -1},
		{mk(2, 0), mk(1, 1), 1},
		{mk(1, 0, 2, 1), mk(1, 0, 2, 1), 0},
	}
	for _, tc := range cases {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	codes := []Code{
		Root(),
		mk(0, 0),
		mk(1, 0, 2, 1, 5, 0),
		mk(1000000, 1, 2, 0),
	}
	for _, c := range codes {
		buf := c.Append(nil)
		if len(buf) != c.WireSize() {
			t.Errorf("%v: len(Append) = %d, WireSize = %d", c, len(buf), c.WireSize())
		}
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode(%v): %v", c, err)
		}
		if n != len(buf) {
			t.Errorf("Decode consumed %d of %d bytes", n, len(buf))
		}
		if !got.Equal(c) {
			t.Errorf("round trip %v -> %v", c, got)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) succeeded")
	}
	// Depth claims 5 decisions but buffer is empty after depth byte.
	if _, _, err := Decode([]byte{5}); err == nil {
		t.Error("Decode(truncated) succeeded")
	}
	if _, _, err := DecodeAll(nil); err == nil {
		t.Error("DecodeAll(nil) succeeded")
	}
	if _, _, err := DecodeAll([]byte{2, 1}); err == nil {
		t.Error("DecodeAll(truncated) succeeded")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	batch := []Code{Root(), mk(1, 0), mk(1, 1, 2, 0), mk(3, 1)}
	buf := AppendAll(nil, batch)
	got, n, err := DecodeAll(buf)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d", n, len(buf))
	}
	if len(got) != len(batch) {
		t.Fatalf("got %d codes, want %d", len(got), len(batch))
	}
	for i := range batch {
		if !got[i].Equal(batch[i]) {
			t.Errorf("code %d: %v != %v", i, got[i], batch[i])
		}
	}
}

func TestKeyUniqueness(t *testing.T) {
	seen := map[string]Code{}
	var walk func(c Code, depth int)
	walk = func(c Code, depth int) {
		k := c.Key()
		if prev, ok := seen[k]; ok {
			t.Fatalf("key collision: %v and %v", prev, c)
		}
		seen[k] = c
		if depth == 0 {
			return
		}
		walk(c.Child(uint32(depth), 0), depth-1)
		walk(c.Child(uint32(depth), 1), depth-1)
	}
	walk(Root(), 6)
	if len(seen) == 0 {
		t.Fatal("walk visited nothing")
	}
}

// randomCode builds a random code of depth ≤ 12 for property tests.
func randomCode(r *rand.Rand) Code {
	c := Root()
	depth := r.Intn(13)
	for i := 0; i < depth; i++ {
		c = c.Child(uint32(r.Intn(1000)), uint8(r.Intn(2)))
	}
	return c
}

func TestPropSiblingInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCode(r)
		if c.IsRoot() {
			return true
		}
		return c.Sibling().Sibling().Equal(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropParentOfChild(t *testing.T) {
	f := func(seed int64, v uint32, b uint8) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCode(r)
		return c.Child(v, b).Parent().Equal(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropWireRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCode(r)
		got, n, err := Decode(c.Append(nil))
		return err == nil && n == c.WireSize() && got.Equal(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropCompareConsistentWithEqual(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a := randomCode(rand.New(rand.NewSource(s1)))
		b := randomCode(rand.New(rand.NewSource(s2)))
		return (a.Compare(b) == 0) == a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropAncestorTransitive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomCode(r)
		b := a.Child(uint32(r.Intn(100)), uint8(r.Intn(2)))
		c := b.Child(uint32(r.Intn(100)), uint8(r.Intn(2)))
		return a.IsAncestorOf(b) && b.IsAncestorOf(c) && a.IsAncestorOf(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := mk(1, 0, 2, 1)
	d := c.Clone()
	d[0].Branch = 1
	if c[0].Branch != 0 {
		t.Error("Clone shares storage with original")
	}
}

func TestChildDoesNotAliasParentStorage(t *testing.T) {
	c := mk(1, 0)
	a := c.Child(2, 0)
	b := c.Child(3, 1)
	if a[1] == b[1] {
		t.Fatalf("children collided: %v vs %v", a, b)
	}
	if !a.Parent().Equal(c) || !b.Parent().Equal(c) {
		t.Error("parents corrupted")
	}
}

// TestPropChildrenMatchesChild: Children equals the two Child calls, in one
// allocation, and the pair shares no writable storage — an append to either
// child or a write into it leaves the sibling and the parent as they were.
func TestPropChildrenMatchesChild(t *testing.T) {
	f := func(seed int64, v uint32) bool {
		c := randomCode(rand.New(rand.NewSource(seed)))
		zero, one := c.Children(v)
		if !zero.Equal(c.Child(v, 0)) || !one.Equal(c.Child(v, 1)) {
			return false
		}
		keep, keepOne := c.Clone(), one.Clone()
		_ = append(zero, Decision{Var: 9, Branch: 1})
		for i := range zero {
			zero[i].Var++
		}
		_ = append(one, Decision{Var: 9, Branch: 0})
		return one.Equal(keepOne) && c.Equal(keep)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	c := mk(1, 0, 2, 1)
	if got := testing.AllocsPerRun(100, func() { c.Children(3) }); got != 1 {
		t.Errorf("Children allocates %.0f, want 1", got)
	}
}

func TestAppendChild(t *testing.T) {
	// AppendChild is the scratch-buffer variant: same result as Child, but it
	// extends the receiver in place when capacity allows.
	scratch := make(Code, 0, 8)
	scratch = scratch.AppendChild(1, 0).AppendChild(2, 1)
	if !scratch.Equal(mk(1, 0, 2, 1)) {
		t.Fatalf("AppendChild chain = %v", scratch)
	}
	if scratch[1].Branch != 1 {
		t.Error("branch not recorded")
	}
	// Branch is masked to one bit, like Child.
	if c := Root().AppendChild(5, 0xff); c[0].Branch != 1 {
		t.Errorf("branch not masked: %v", c)
	}
	// Truncate-and-reuse must overwrite the old tail, the pattern the table
	// walks rely on.
	scratch = scratch[:1].AppendChild(7, 0)
	if !scratch.Equal(mk(1, 0, 7, 0)) {
		t.Errorf("reused scratch = %v", scratch)
	}
}

func TestEncodeInto(t *testing.T) {
	c := mk(1, 0, 2, 1, 5, 0)
	buf := make([]byte, 0, 64)
	buf = c.EncodeInto(buf)
	if string(buf) != string(c.Append(nil)) {
		t.Fatalf("EncodeInto = % x, Append = % x", buf, c.Append(nil))
	}
	// Reuse overwrites, never appends.
	d := mk(9, 1)
	buf = d.EncodeInto(buf)
	if string(buf) != string(d.Append(nil)) {
		t.Fatalf("reused EncodeInto = % x", buf)
	}
	got, n, err := Decode(buf)
	if err != nil || n != len(buf) || !got.Equal(d) {
		t.Fatalf("round trip: %v %d %v", got, n, err)
	}
}

func BenchmarkAppend(b *testing.B) {
	c := mk(1, 0, 2, 1, 5, 0, 9, 1, 12, 0, 31, 1)
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = c.Append(buf[:0])
	}
}

func BenchmarkDecode(b *testing.B) {
	c := mk(1, 0, 2, 1, 5, 0, 9, 1, 12, 0, 31, 1)
	buf := c.Append(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- front-coded batches ---------------------------------------------------------

// checkBatch round-trips one batch and holds the size function to the encoder.
func checkBatch(t *testing.T, batch []Code) {
	t.Helper()
	buf := AppendAll(nil, batch)
	if len(buf) != WireSizeAll(batch) {
		t.Fatalf("%v: len(AppendAll) = %d, WireSizeAll = %d", batch, len(buf), WireSizeAll(batch))
	}
	got, n, err := DecodeAll(append(buf, 0xff)) // trailing bytes are the caller's, not the batch's
	if err != nil {
		t.Fatalf("DecodeAll(%v): %v", batch, err)
	}
	if n != len(buf) || len(got) != len(batch) {
		t.Fatalf("%v: consumed %d of %d bytes, %d codes of %d", batch, n, len(buf), len(got), len(batch))
	}
	for i := range batch {
		if !got[i].Equal(batch[i]) {
			t.Fatalf("%v: code %d came back %v", batch, i, got[i])
		}
		if got[i] == nil || cap(got[i]) != len(got[i]) {
			t.Fatalf("%v: code %d is nil or not clipped to its length (len %d cap %d)", batch, i, len(got[i]), cap(got[i]))
		}
	}
	// DecodeEach sees the same codes, each with what it really has in common
	// with the last.
	i := 0
	n, err = DecodeEach(buf, func(c Code, shared, left int) error {
		want := 0
		if i > 0 {
			want = CommonPrefixLen(batch[i-1], batch[i])
		}
		if !c.Equal(batch[i]) || shared != want || left != len(batch)-1-i {
			t.Fatalf("%v: DecodeEach code %d = %v shared %d with %d to come, want shared %d", batch, i, c, shared, left, want)
		}
		i++
		return nil
	})
	if err != nil || i != len(batch) || n != len(buf) {
		t.Fatalf("%v: DecodeEach read %d codes and %d of %d bytes: %v", batch, i, n, len(buf), err)
	}
}

// TestBatchShapes: the batches a frontier never is but a hand-built message
// may be — empty, unordered, with duplicates, a code next to its own ancestor
// or descendant, roots anywhere — all go through the one format.
func TestBatchShapes(t *testing.T) {
	deep := mk(7, 1, 300, 0, 5000, 1, 2, 0)
	for _, batch := range [][]Code{
		nil,
		{Root()},
		{Root(), Root()},
		{deep},
		{deep, deep, deep},
		{deep, deep[:2], deep},                 // descendant, ancestor, descendant
		{deep[:1], deep[:3], deep},             // a chain root-ward to leaf-ward
		{deep, Root(), deep.Sibling(), Root()}, // roots between siblings
		{mk(9, 1), mk(1, 0), mk(9, 0, 4, 1), mk(1, 0, 2, 1)}, // no order at all
	} {
		checkBatch(t, batch)
	}
	// A batch of one code is that code's own encoding behind a count of 1: the
	// root termination report keeps its bytes.
	for _, c := range []Code{Root(), deep} {
		if got, want := AppendAll(nil, []Code{c}), c.Append([]byte{1}); string(got) != string(want) {
			t.Errorf("singleton %v encodes as %x, want %x", c, got, want)
		}
	}
}

// TestDecodeEachScratchGrowsOnce: the scratch code DecodeEach rebuilds each
// code in starts at 64 decisions, so walking a frontier that deepens a level
// a code down to depth 40 costs one allocation, not one per doubling (seven).
func TestDecodeEachScratchGrowsOnce(t *testing.T) {
	var frontier []Code
	c := Root()
	for d := uint32(1); d <= 40; d++ {
		frontier = append(frontier, c.Child(d, 0))
		c = c.Child(d, 1)
	}
	buf := AppendAll(nil, frontier)
	skip := func(Code, int, int) error { return nil }
	if got := testing.AllocsPerRun(100, func() { DecodeEach(buf, skip) }); got != 1 {
		t.Errorf("DecodeEach over a depth-40 frontier allocates %.0f, want 1", got)
	}
}

// TestPropBatchRoundTrip: arbitrary batches — random codes, and random walks
// that step to a neighbour's ancestor, descendant, sibling or copy so that
// codes really share prefixes — round-trip at exactly the size function.
func TestPropBatchRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		checkBatch(t, randomBatch(rand.New(rand.NewSource(seed))))
	}
}

func randomBatch(r *rand.Rand) []Code {
	batch := make([]Code, r.Intn(12))
	for i := range batch {
		if i == 0 || r.Intn(3) == 0 {
			batch[i] = randomCode(r)
			continue
		}
		prev := batch[i-1]
		switch r.Intn(4) {
		case 0:
			batch[i] = prev[:r.Intn(len(prev)+1)]
		case 1:
			batch[i] = Join(prev, randomCode(r))
		case 2:
			batch[i] = Join(prev[:r.Intn(len(prev)+1)], randomCode(r))
		case 3:
			batch[i] = prev
		}
	}
	return batch
}

// appendLoose is AppendAll as another encoder might write it: any shared
// length up to the true one (all of them 0 if r is nil), and varints padded
// with a continuation byte now and then.
func appendLoose(r *rand.Rand, cs []Code) []byte {
	var dst []byte
	uv := func(v uint64) {
		dst = binary.AppendUvarint(dst, v)
		if r != nil && r.Intn(4) == 0 {
			dst[len(dst)-1] |= 0x80
			dst = append(dst, 0)
		}
	}
	uv(uint64(len(cs)))
	for i, c := range cs {
		shared := 0
		if i > 0 {
			if r != nil {
				shared = r.Intn(CommonPrefixLen(cs[i-1], c) + 1)
			}
			uv(uint64(shared))
		}
		uv(uint64(len(c)))
		for _, d := range c[shared:] {
			uv(uint64(d.Var)<<1 | uint64(d.Branch))
		}
	}
	return dst
}

// TestBatchLooseEncodings: the decoder reads a batch that shares less than it
// could or pads its varints, reports the true shared lengths all the same, and
// charges MaxExpand as if the batch had come from AppendAll — so what it
// accepts, it accepts again re-encoded. Charged by the bytes read instead,
// copies of one deep code written out in full would pass and their re-encoding,
// a few bytes a copy, would not.
func TestBatchLooseEncodings(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		batch := randomBatch(r)
		loose := appendLoose(r, batch)
		got, n, err := DecodeAll(loose)
		if err != nil || n != len(loose) || string(AppendAll(nil, got)) != string(AppendAll(nil, batch)) {
			t.Fatalf("seed %d: %v as %x decoded to %v, %d bytes, %v", seed, batch, loose, got, n, err)
		}
		i := 0
		DecodeEach(loose, func(c Code, shared, _ int) error {
			if i > 0 && shared != CommonPrefixLen(batch[i-1], c) {
				t.Fatalf("seed %d: code %d shares %d, reported %d", seed, i, CommonPrefixLen(batch[i-1], c), shared)
			}
			i++
			return nil
		})
	}
	deep := make(Code, 1000)
	for i := range deep {
		deep[i] = Decision{Var: uint32(i), Branch: 1}
	}
	for _, tc := range []struct {
		copies int
		dense  bool
	}{{60, false}, {400, true}} {
		batch := make([]Code, tc.copies)
		for i := range batch {
			batch[i] = deep
		}
		tight := AppendAll(nil, batch)
		if err := CheckExpand(batch, len(tight)); (err != nil) != tc.dense {
			t.Fatalf("%d copies in %d bytes: CheckExpand = %v", tc.copies, len(tight), err)
		}
		for name, buf := range map[string][]byte{"front-coded": tight, "written out in full": appendLoose(nil, batch)} {
			cs, _, err := DecodeAll(buf)
			if tc.dense && !errors.Is(err, ErrExpand) || !tc.dense && (err != nil || len(cs) != tc.copies) {
				t.Errorf("%d copies %s (%d bytes): %d codes, %v", tc.copies, name, len(buf), len(cs), err)
			}
		}
	}
}

// TestBatchDecodeBounds: what front coding lets a frame claim and the decoder
// must refuse. A code may not share more than its predecessor holds, may not
// be shallower than what it shares, and a batch may not materialise more than
// MaxExpand decisions per encoded byte — n codes repeating a depth-D prefix
// cost about 2n+D bytes on the wire and n·D decisions in memory.
func TestBatchDecodeBounds(t *testing.T) {
	for name, buf := range map[string][]byte{
		"shared past the predecessor": {2, 1, 2, 3, 1},    // code 0 depth 1; code 1 shares 3
		"depth below shared":          {2, 2, 2, 4, 2, 1}, // code 0 depth 2; code 1 shares 2, depth 1
		"count past the buffer":       {200, 1, 0},
		"truncated suffix":            {2, 1, 2, 1, 3, 6},      // code 1 shares 1, depth 3, one decision present
		"truncated shared":            {2, 1, 2},               // second code missing entirely
		"depth past the buffer":       {2, 1, 2, 1, 100, 6, 6}, // depth 100 with two bytes left
	} {
		if cs, _, err := DecodeAll(buf); err == nil {
			t.Errorf("%s: %x decoded to %v", name, buf, cs)
		}
	}

	// 64 KB: one code 4 000 deep, then code after code claiming all of it.
	spine := make(Code, 4000)
	for i := range spine {
		spine[i] = Decision{Var: uint32(i), Branch: 1}
	}
	var body []byte
	n := 1
	for ; spine.WireSize()+len(body) < 64<<10; n++ {
		body = binary.AppendUvarint(body, uint64(len(spine))) // shared
		body = binary.AppendUvarint(body, uint64(len(spine))) // depth: a duplicate
	}
	frame := append(spine.Append(binary.AppendUvarint(nil, uint64(n))), body...)
	claimed := n * len(spine)
	if claimed < 10*MaxExpand*len(frame) {
		t.Fatalf("the frame claims only %d decisions, the cap is %d", claimed, MaxExpand*len(frame))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cs, _, err := DecodeAll(frame)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrExpand) {
		t.Fatalf("a %d-byte frame claiming %d decisions decoded to %d codes, %v", len(frame), claimed, len(cs), err)
	}
	// What the decoder may have allocated before refusing: the capped
	// decisions, a slice header per declared code, and the spine's scratch.
	limit := uint64(MaxExpand*len(frame)+2*len(spine))*uint64(unsafe.Sizeof(Decision{})) + uint64(n)*uint64(unsafe.Sizeof(Code{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > limit+limit/4 {
		t.Errorf("rejecting the frame allocated %d bytes, the cap allows %d", got, limit)
	}
}
