package protocol

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"gossipbnb/internal/code"
	"gossipbnb/internal/ctree"
)

func sampleCodes() []code.Code {
	return []code.Code{
		code.Root(),
		code.Root().Child(1, 0).Child(2, 1),
		code.Root().Child(300, 1), // multi-byte varint variable
	}
}

// tableCodes is a contracted frontier in prefix order: a table push of these
// codes decodes to the same codes. (sampleCodes branches the root on two
// variables, which no table holds.)
func tableCodes() []code.Code {
	return []code.Code{
		code.Root().Child(1, 0).Child(2, 1),
		code.Root().Child(1, 1).Child(300, 0), // multi-byte varint variable
	}
}

// sameMsg is reflect.DeepEqual, except that table pushes are compared by what
// they carry — scalars and frontier — since a decoded one also holds its trie.
func sameMsg(got, want Msg) bool {
	g, ok := got.(TableMsg)
	w, ok2 := want.(TableMsg)
	if !ok || !ok2 {
		return reflect.DeepEqual(got, want)
	}
	return g.Incumbent == w.Incumbent && g.ActAge == w.ActAge && reflect.DeepEqual(g.Frontier(), w.Frontier())
}

func TestCodecRoundTrip(t *testing.T) {
	codes := sampleCodes()
	cases := []Msg{
		Report{Codes: codes, Incumbent: 3.5, ActAge: 0.25},
		TableMsg{Codes: tableCodes(), Incumbent: -1, ActAge: 12},
		WorkRequest{Incumbent: math.Inf(1), ActAge: 0},
		WorkGrant{Codes: codes[1:], Incumbent: -2, ActAge: 7},
		WorkDeny{Incumbent: 0, ActAge: 3},
		DigestReport{Digest: 0xdeadbeefcafef00d, Codes: codes, Incumbent: 2, ActAge: 1},
		SubtreeRequest{Prefix: codes[1], Full: true, Incumbent: 9, ActAge: 4},
		SubtreeRequest{Prefix: code.Root(), Incumbent: -3},
		SubtreeReply{Prefix: codes[1], Leaf: true, Rel: codes[2:], Incumbent: 5, ActAge: 2},
		SubtreeReply{Prefix: codes[2], BranchVar: 301,
			Kids: [2]ctree.ChildDigest{{Present: true, Digest: 7}, {Present: true, Digest: 0xffffffffffffffff}}},
		SubtreeReply{Prefix: code.Root(), BranchVar: 1,
			Kids: [2]ctree.ChildDigest{1: {Present: true, Digest: 42}}},
		Hello{ID: 7, Addr: "127.0.0.1:9021", Incumbent: math.Inf(1), ActAge: 0.5},
		Hello{ID: 300, Incumbent: 1},
		Welcome{Peers: []Peer{{ID: 0, Addr: "10.0.0.1:80"}, {ID: 5}, {ID: 999, Addr: "x"}},
			Incumbent: -4, ActAge: 6},
		Welcome{Incumbent: 2},
		Ping{Incumbent: 3.5, ActAge: 0.25},
		Ping{},
	}
	for _, m := range cases {
		buf, err := Encode(nil, m)
		if err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		if len(buf) != m.Size() {
			t.Errorf("%T: Size() = %d but Encode produced %d bytes", m, m.Size(), len(buf))
		}
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if n != len(buf) {
			t.Errorf("%T: decode consumed %d of %d bytes", m, n, len(buf))
		}
		if !sameMsg(got, m) {
			t.Errorf("%T round trip mismatch:\n got %+v\nwant %+v", m, got, m)
		}
	}
}

func TestCodecEmptyCodeBatches(t *testing.T) {
	for _, m := range []Msg{Report{}, TableMsg{}, WorkGrant{}, DigestReport{}, SubtreeRequest{}, SubtreeReply{Leaf: true}} {
		buf, err := Encode(nil, m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		got, _, err := Decode(buf)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if reflect.TypeOf(got) != reflect.TypeOf(m) {
			t.Errorf("decoded %T, want %T", got, m)
		}
	}
}

func TestCodecSelfDelimiting(t *testing.T) {
	// Concatenated messages decode one at a time.
	a, _ := Encode(nil, WorkDeny{Incumbent: 1})
	buf, _ := Encode(a, Report{Codes: sampleCodes(), Incumbent: 2})
	first, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := first.(WorkDeny); !ok {
		t.Fatalf("first = %T", first)
	}
	second, _, err := Decode(buf[n:])
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := second.(Report); !ok {
		t.Fatalf("second = %T", second)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Error("empty buffer accepted")
	}
	if _, _, err := Decode(make([]byte, 16)); err == nil {
		t.Error("truncated scalars accepted")
	}
	if _, _, err := Decode(make([]byte, 17)); err == nil {
		t.Error("kind 0 accepted")
	}
	buf, _ := Encode(nil, WorkDeny{})
	buf[0] = 99
	if _, _, err := Decode(buf); err == nil {
		t.Error("unknown kind accepted")
	}
	// Report whose code batch is cut off.
	buf, _ = Encode(nil, Report{Codes: sampleCodes()})
	if _, _, err := Decode(buf[:len(buf)-2]); err == nil {
		t.Error("truncated code batch accepted")
	}
	if _, err := Encode(nil, nil); err == nil {
		t.Error("nil message encoded")
	}
	// Digest report whose 8-byte digest is cut off.
	buf, _ = Encode(nil, DigestReport{Digest: 1, Codes: sampleCodes()})
	if _, _, err := Decode(buf[:scalarSize+4]); err == nil {
		t.Error("truncated digest accepted")
	}
	// Subtree request whose prefix is cut off.
	buf, _ = Encode(nil, SubtreeRequest{Prefix: sampleCodes()[2]})
	if _, _, err := Decode(buf[:len(buf)-1]); err == nil {
		t.Error("truncated subtree request prefix accepted")
	}
	// Leaf reply whose declared subtree section overruns the buffer.
	buf, _ = Encode(nil, SubtreeReply{Leaf: true, Prefix: sampleCodes()[1], Rel: sampleCodes()})
	if _, _, err := Decode(buf[:len(buf)-1]); err == nil {
		t.Error("truncated subtree section accepted")
	}
	// Branch reply with an invalid child mask.
	branch := SubtreeReply{Prefix: sampleCodes()[1], BranchVar: 9,
		Kids: [2]ctree.ChildDigest{{Present: true, Digest: 1}, {Present: true, Digest: 2}}}
	buf, _ = Encode(nil, branch)
	bad := append([]byte(nil), buf...)
	bad[len(bad)-17] = 7 // the mask byte precedes the two 8-byte digests
	if _, _, err := Decode(bad); err == nil {
		t.Error("invalid child mask accepted")
	}
	// Branch reply whose child digests are cut off.
	if _, _, err := Decode(buf[:len(buf)-3]); err == nil {
		t.Error("truncated child digests accepted")
	}
	// Hello whose address is cut off.
	buf, _ = Encode(nil, Hello{ID: 3, Addr: "host:1234"})
	if _, _, err := Decode(buf[:len(buf)-2]); err == nil {
		t.Error("truncated hello address accepted")
	}
	// Welcome whose last peer is cut off.
	buf, _ = Encode(nil, Welcome{Peers: []Peer{{ID: 1, Addr: "a:1"}, {ID: 2, Addr: "b:2"}}})
	if _, _, err := Decode(buf[:len(buf)-1]); err == nil {
		t.Error("truncated welcome peer accepted")
	}
	// Hello with a corrupt declared address length.
	buf, _ = Encode(nil, Hello{ID: 1})
	buf[len(buf)-1] = 0xff // addr length varint continues into nothing
	if _, _, err := Decode(buf); err == nil {
		t.Error("bad hello address length accepted")
	}
}

func TestCodecInstanceRoundTrip(t *testing.T) {
	codes := sampleCodes()
	inner := []Msg{
		Report{Codes: codes, Incumbent: 3.5, ActAge: 0.25},
		TableMsg{Codes: tableCodes(), Incumbent: -1, ActAge: 12},
		WorkRequest{Incumbent: math.Inf(1)},
		WorkGrant{Codes: codes[1:], Incumbent: -2, ActAge: 7},
		WorkDeny{ActAge: 3},
		DigestReport{Digest: 0xdeadbeef, Codes: codes, Incumbent: 2},
		SubtreeRequest{Prefix: codes[1], Full: true, Incumbent: 9},
		SubtreeReply{Prefix: codes[1], Leaf: true, Rel: codes[2:], Incumbent: 5},
		Hello{ID: 7, Addr: "127.0.0.1:9021", Incumbent: 1},
		Welcome{Peers: []Peer{{ID: 0, Addr: "10.0.0.1:80"}}, Incumbent: -4},
		Ping{Incumbent: 12, ActAge: 0.5},
	}
	for _, inst := range []InstanceID{0, 1, 2, 127, 128, 300, math.MaxUint32} {
		for _, m := range inner {
			im := InstMsg{Instance: inst, Msg: m}
			buf, err := Encode(nil, im)
			if err != nil {
				t.Fatalf("inst %d %T: encode: %v", inst, m, err)
			}
			if len(buf) != im.Size() {
				t.Errorf("inst %d %T: Size() = %d but Encode produced %d bytes", inst, m, im.Size(), len(buf))
			}
			gotInst, got, n, err := DecodeInstance(buf)
			if err != nil {
				t.Fatalf("inst %d %T: decode: %v", inst, m, err)
			}
			if gotInst != inst || n != len(buf) {
				t.Errorf("inst %d %T: DecodeInstance = inst %d, %d of %d bytes", inst, m, gotInst, n, len(buf))
			}
			if !sameMsg(got, m) {
				t.Errorf("inst %d %T round trip mismatch:\n got %+v\nwant %+v", inst, m, got, m)
			}
			if inst == 0 {
				// Instance 0 is the legacy encoding, bit for bit.
				legacy, _ := Encode(nil, m)
				if string(buf) != string(legacy) {
					t.Errorf("%T: instance 0 encoding differs from legacy", m)
				}
				if _, _, err := Decode(buf); err != nil {
					t.Errorf("%T: legacy Decode rejected instance-0 bytes: %v", m, err)
				}
			}
		}
	}
}

func TestDecodeRejectsInstanceInLegacyMode(t *testing.T) {
	// Every pre-instance kind must refuse the instance field in version-0
	// mode: a flagged header is a protocol violation there, not a message.
	for k := byte(1); k < byte(KindCount); k++ {
		buf, err := Encode(nil, InstMsg{Instance: 42, Msg: WorkDeny{}})
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = k | instanceFlag
		if _, _, err := Decode(buf); err == nil {
			t.Errorf("legacy Decode accepted instance-scoped kind %d", k)
		}
		if _, _, _, err := DecodeInstance(buf); err != nil && k == KindDeny {
			t.Errorf("DecodeInstance rejected a valid tagged message: %v", err)
		}
	}
}

func TestDecodeInstanceRejectsGarbage(t *testing.T) {
	if _, _, _, err := DecodeInstance(nil); err == nil {
		t.Error("empty buffer accepted")
	}
	good, err := Encode(nil, InstMsg{Instance: 300, Msg: WorkDeny{Incumbent: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Flagged kind byte with nothing after it: the varint is truncated.
	if _, _, _, err := DecodeInstance(good[:1]); err == nil {
		t.Error("truncated instance varint accepted")
	}
	// Scalars cut off after a valid instance varint.
	if _, _, _, err := DecodeInstance(good[:len(good)-1]); err == nil {
		t.Error("truncated scalars accepted")
	}
	// A flagged header carrying instance 0 is non-canonical (the canonical
	// zero is flagless) and must be rejected, not aliased.
	zero := append([]byte{KindDeny | instanceFlag, 0}, good[3:]...)
	if _, _, _, err := DecodeInstance(zero); err == nil {
		t.Error("instance 0 with the flag set accepted")
	}
	// Instance varint overflowing uint32.
	over := append([]byte{KindDeny | instanceFlag, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, good[3:]...)
	if _, _, _, err := DecodeInstance(over); err == nil {
		t.Error("instance id overflow accepted")
	}
	// Unknown kind under the flag.
	bad := append([]byte(nil), good...)
	bad[0] = 99 | instanceFlag
	if _, _, _, err := DecodeInstance(bad); err == nil {
		t.Error("unknown flagged kind accepted")
	}
	// Payload truncation inside a tagged message.
	rep, _ := Encode(nil, InstMsg{Instance: 5, Msg: Report{Codes: sampleCodes()}})
	if _, _, _, err := DecodeInstance(rep[:len(rep)-2]); err == nil {
		t.Error("truncated tagged code batch accepted")
	}
	// Nested wrappers must not encode.
	if _, err := Encode(nil, InstMsg{Instance: 1, Msg: InstMsg{Instance: 2, Msg: WorkDeny{}}}); err == nil {
		t.Error("nested InstMsg encoded")
	}
}

// FuzzDecode throws arbitrary bytes at the codec: it must never panic, and
// anything it accepts must survive an encode/decode round trip unchanged.
// (Byte-identity is NOT required: varints have non-minimal encodings that
// decode fine but re-encode shorter.) Both decode modes run on every input:
// the version-0 Decode and the instance-aware DecodeInstance.
func FuzzDecode(f *testing.F) {
	for _, m := range []Msg{
		Report{Codes: sampleCodes(), Incumbent: 1, ActAge: 2},
		TableMsg{Codes: tableCodes(), Incumbent: 3},
		WorkRequest{Incumbent: 4},
		WorkGrant{Codes: sampleCodes()[1:2], ActAge: 5},
		WorkDeny{},
		DigestReport{Digest: 0x1234, Codes: sampleCodes(), Incumbent: 6},
		SubtreeRequest{Prefix: sampleCodes()[1], Full: true},
		SubtreeReply{Leaf: true, Prefix: sampleCodes()[1], Rel: sampleCodes()[2:]},
		SubtreeReply{Prefix: sampleCodes()[2], BranchVar: 3,
			Kids: [2]ctree.ChildDigest{{Present: true, Digest: 11}}},
		Hello{ID: 12, Addr: "127.0.0.1:8080", Incumbent: 7},
		Welcome{Peers: []Peer{{ID: 1, Addr: "a:1"}, {ID: 2}}, ActAge: 3},
		Ping{Incumbent: 1, ActAge: 2},
	} {
		buf, err := Encode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	// Instance-scoped headers: tagged seeds for the flagged-kind path.
	for _, inst := range []InstanceID{1, 128, math.MaxUint32} {
		for _, m := range []Msg{
			Report{Codes: sampleCodes(), Incumbent: 1},
			WorkRequest{ActAge: 2},
			DigestReport{Digest: 0x77, Codes: sampleCodes()[:1]},
			Hello{ID: 3, Addr: "h:1"},
		} {
			buf, err := Encode(nil, InstMsg{Instance: inst, Msg: m})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(buf)
		}
	}
	// Front-coded batches that lie: a shared length past the predecessor, a
	// depth below the shared length, a count the frame cannot hold, a suffix
	// cut short, many codes each claiming all of a deep first one — and one
	// that shares less than it could, which is no lie.
	report, _ := Encode(nil, Report{Incumbent: 1})
	report = slices.Clip(report[:len(report)-1]) // the scalars; the batch follows
	deep := code.Root()
	for i := 0; i < 1000; i++ {
		deep = deep.AppendChild(uint32(i), 1)
	}
	dense := deep.Append(binary.AppendUvarint(report, 400))
	for i := 1; i < 400; i++ {
		dense = append(dense, 0xe8, 7, 0xe8, 7) // shared 1000, depth 1000
	}
	for _, batch := range [][]byte{
		{2, 1, 2, 3, 1},
		{2, 2, 2, 4, 2, 1},
		{0xff, 0xff, 0xff, 0x7f, 0},
		{2, 1, 2, 1, 3, 6},
		dense[len(report):],
		{3, 2, 2, 4, 0, 2, 2, 4, 0x80, 0, 2, 2, 4}, // copies written out in full, a padded varint
	} {
		f.Add(append(report, batch...))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{KindDeny | 0x80})          // flagged kind, truncated varint
	f.Add([]byte{KindDeny | 0x80, 0})       // flagged instance 0 (non-canonical)
	f.Add([]byte{KindDeny | 0x80, 0xac, 2}) // flagged header, truncated scalars
	// Table pushes, whose body is a trie: a real one of a few hundred
	// vertices, a deep descent's frontier whose decoded codes would pass the
	// cap, and near misses — a pair of complete children, a count the tags
	// leave open, nonzero padding bits, a padded variable, a count the frame
	// cannot hold.
	table, _ := Encode(nil, TableMsg{Incumbent: 1})
	table = slices.Clip(table[:len(table)-1]) // the scalars; the trie follows
	push := ctree.New()
	for i, c := range fakeLeaves(9) {
		if i%3 != 0 && i%7 != 0 {
			push.Insert(c)
		}
	}
	for _, body := range [][]byte{
		push.Encode(nil),
		spineEncoding(2000),
		{3, 0x03, 5},
		{2, 0x03, 5},
		{1, 0x04},
		{2, 0x01, 0x85, 0x00},
		{0xff, 0xff, 0x03, 0, 0},
	} {
		f.Add(append(table, body...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzInstanceDecode(t, data)
		m, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// The memory bound of front coding: whatever decoded cost at most
		// MaxExpand decisions per byte of input.
		if d := batchDecisions(m); d > code.MaxExpand*n {
			t.Fatalf("%d bytes decoded to %d decisions, the cap is %d per byte", n, d, code.MaxExpand)
		}
		// A trie takes two bits of input per vertex, so a table push holds
		// at most four frontier codes per byte.
		if tm, ok := m.(TableMsg); ok && tm.Len() > 4*n {
			t.Fatalf("%d bytes decoded to a table of %d codes", n, tm.Len())
		}
		re, err := Encode(nil, m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		m2, n2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		if n2 != len(re) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(re))
		}
		// Compare canonical encodings: bit-exact even for NaN scalars,
		// which reflect.DeepEqual would reject.
		re2, err := Encode(nil, m2)
		if err != nil {
			t.Fatal(err)
		}
		if string(re) != string(re2) {
			t.Fatalf("round trip changed the message:\n was %+v\n now %+v", m, m2)
		}
	})
}

// TestDeepFrontierRefusedAtTheSender: what is left behind by a depth-first
// descent D levels deep — D sibling codes, in prefix order — is an honest
// frontier of D²/2 decisions in some 8·D bytes front-coded, past
// code.MaxExpand from about 1 000 levels. For a code batch the limit is the
// same on both ends: Encode refuses exactly the batches DecodeAll would, so
// the sender hears of it (a TCP send counts the drop as Unrouted) instead of
// the receiver discarding frames as corrupt. Whatever Encode lets through
// round-trips. A table push is no code batch: it travels as its trie, about
// 2.5 bytes a level here, and its decoder's memory is bounded by its input,
// so it goes at any depth a table holds — down to ctree's 2^20 levels, here
// 2^17 — and round-trips; the decoded push keeps its frontier as Codes only
// while that is within the cap.
func TestDeepFrontierRefusedAtTheSender(t *testing.T) {
	for _, depth := range []int{100, 800, 1200, 3000} {
		tb := ctree.New()
		spine := code.Root()
		for i := 0; i < depth; i++ {
			spine = spine.AppendChild(uint32(7*i), uint8(i&1))
			if _, err := tb.Insert(spine.Sibling()); err != nil {
				t.Fatal(err)
			}
		}
		cs := tb.Codes()
		_, _, derr := code.DecodeAll(code.AppendAll(nil, cs))
		refused := errors.Is(derr, code.ErrExpand)
		if !refused && derr != nil || refused != (depth > 1000) {
			t.Fatalf("depth %d: DecodeAll of the encoded frontier: %v", depth, derr)
		}
		for _, m := range []Msg{
			Report{Codes: cs}, WorkGrant{Codes: cs}, DigestReport{Codes: cs},
			SubtreeReply{Leaf: true, Prefix: spine[:3], Rel: cs},
			InstMsg{Instance: 9, Msg: Report{Codes: cs}},
		} {
			buf, err := Encode(nil, m)
			if refused {
				if !errors.Is(err, code.ErrExpand) {
					t.Errorf("depth %d: Encode(%T) = %v, want ErrExpand as the decoder says", depth, m, err)
				}
				continue
			}
			if err != nil || len(buf) != m.Size() {
				t.Fatalf("depth %d: Encode(%T): %d bytes, Size %d, %v", depth, m, len(buf), m.Size(), err)
			}
			inst, got, n, err := DecodeInstance(buf)
			if re, _ := Encode(nil, InstMsg{Instance: inst, Msg: got}); err != nil || n != len(buf) || string(re) != string(buf) {
				t.Errorf("depth %d: %T does not round-trip: %v", depth, m, err)
			}
		}
		for _, m := range []Msg{
			TableMsg{table: tb.Snapshot()}, TableMsg{Codes: cs},
			InstMsg{Instance: 9, Msg: TableMsg{table: tb.Snapshot()}},
		} {
			checkDeepPush(t, m, depth, tb.Decisions() <= code.MaxExpand*tb.EncodedSize())
		}
	}
	deep := 1 << 17
	tb, err := ctree.Decode(spineEncoding(deep))
	if err != nil || tb.Len() != deep {
		t.Fatalf("a %d-level spine: %v", deep, err)
	}
	checkDeepPush(t, TableMsg{table: tb}, deep, false)
}

// checkDeepPush requires a table push of a depth-level descent's frontier to
// encode to Size() bytes and decode to the same frontier size, re-encoding
// byte for byte, with its codes materialised exactly when listed is set.
func checkDeepPush(t *testing.T, m Msg, depth int, listed bool) {
	t.Helper()
	buf, err := Encode(nil, m)
	if err != nil || len(buf) != m.Size() {
		t.Fatalf("depth %d: Encode(%T): %d bytes, Size %d, %v", depth, m, len(buf), m.Size(), err)
	}
	inst, got, n, err := DecodeInstance(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("depth %d: DecodeInstance(%T): %v", depth, m, err)
	}
	if re, _ := Encode(nil, InstMsg{Instance: inst, Msg: got}); string(re) != string(buf) {
		t.Errorf("depth %d: %T does not round-trip", depth, m)
	}
	if tm := got.(TableMsg); tm.Len() != depth || (tm.Codes != nil) != listed {
		t.Errorf("depth %d: decoded push of %d codes, codes listed %v, want %v", depth, tm.Len(), tm.Codes != nil, listed)
	}
}

// spineEncoding is the trie encoding of a depth-first descent's frontier:
// depth spine vertices on variable 0 going down branch 1, each with its
// complete sibling on branch 0, the deepest spine vertex with that sibling
// alone — in pre-order, tags 11 00 repeated, then 01 00.
func spineEncoding(depth int) []byte {
	n := 2 * depth
	buf := binary.AppendUvarint(nil, uint64(n))
	at := len(buf)
	buf = append(buf, make([]byte, (n+3)/4+depth)...) // variables: depth zeros
	for k := 0; k < n; k += 2 {
		tag := byte(3)
		if k == n-2 {
			tag = 1
		}
		buf[at+k/4] |= tag << (2 * (k % 4))
	}
	return buf
}

// batchDecisions counts the decisions of a message's code batch.
func batchDecisions(m Msg) (n int) {
	var cs []code.Code
	switch t := m.(type) {
	case Report:
		cs = t.Codes
	case TableMsg:
		cs = t.Codes
	case WorkGrant:
		cs = t.Codes
	case DigestReport:
		cs = t.Codes
	case SubtreeReply:
		cs = t.Rel
	}
	for _, c := range cs {
		n += len(c)
	}
	return n
}

// fuzzInstanceDecode holds the instance-aware half of the fuzz property: what
// DecodeInstance accepts must re-encode (tagged) and re-decode to the same
// instance and canonical bytes, and version-0 Decode must refuse any input
// whose header carries the instance flag.
func fuzzInstanceDecode(t *testing.T, data []byte) {
	if len(data) > 0 && data[0]&0x80 != 0 {
		if _, _, err := Decode(data); err == nil {
			t.Fatal("legacy Decode accepted an instance-flagged header")
		}
	}
	inst, m, n, err := DecodeInstance(data)
	if err != nil {
		return
	}
	if n <= 0 || n > len(data) {
		t.Fatalf("DecodeInstance consumed %d of %d bytes", n, len(data))
	}
	re, err := Encode(nil, InstMsg{Instance: inst, Msg: m})
	if err != nil {
		t.Fatalf("decoded message does not re-encode: %v", err)
	}
	inst2, m2, n2, err := DecodeInstance(re)
	if err != nil {
		t.Fatalf("re-encoded message does not decode: %v", err)
	}
	if inst2 != inst || n2 != len(re) {
		t.Fatalf("re-decode = inst %d, %d of %d bytes; want inst %d", inst2, n2, len(re), inst)
	}
	re2, err := Encode(nil, InstMsg{Instance: inst2, Msg: m2})
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != string(re2) {
		t.Fatalf("instance round trip changed the message:\n was %+v\n now %+v", m, m2)
	}
}
