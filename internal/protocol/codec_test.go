package protocol

import (
	"encoding/binary"
	"encoding/hex"
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

// tableCodes is a contracted frontier in prefix order: the snapshot of their
// table (tableOf) travels as a trie and decodes to the same codes. A
// hand-built set message of any codes — sampleCodes branches the root on two
// variables, which no table holds — travels as a list.
func tableCodes() []code.Code {
	return []code.Code{
		code.Root().Child(1, 0).Child(2, 1),
		code.Root().Child(1, 1).Child(300, 0), // multi-byte varint variable
	}
}

// tableOf returns the snapshot of the table of cs.
func tableOf(cs ...code.Code) *ctree.Table {
	t := ctree.New()
	t.InsertAll(cs)
	return t.Snapshot()
}

// sameMsg is reflect.DeepEqual over what messages say: a set message is
// compared by its frontier and a leaf subtree reply by its subtree's, since a
// decoded one also holds its trie.
func sameMsg(got, want Msg) bool { return reflect.DeepEqual(said(got), said(want)) }

func said(m Msg) any {
	switch t := m.(type) {
	case Report:
		t.Codes, t.table = t.Frontier(), nil
		return t
	case TableMsg:
		t.Codes, t.table = t.Frontier(), nil
		return t
	case DigestReport:
		t.Codes, t.table = t.Frontier(), nil
		return t
	case SubtreeReply:
		cs := t.trie().Codes()
		t.table = nil
		return []any{t, cs}
	}
	return m
}

func TestCodecRoundTrip(t *testing.T) {
	codes := sampleCodes()
	cases := []Msg{
		Report{Codes: codes, Incumbent: 3.5, ActAge: 0.25},
		Report{Codes: tableCodes(), Incumbent: 3.5},
		Report{table: tableOf(tableCodes()...), ActAge: 1},
		RootReport(-7, 0.5),
		TableMsg{Codes: tableCodes(), Incumbent: -1, ActAge: 12},
		TableMsg{Codes: codes, Incumbent: -1},
		WorkRequest{Incumbent: math.Inf(1), ActAge: 0},
		WorkGrant{Codes: codes[1:], Incumbent: -2, ActAge: 7},
		WorkDeny{Incumbent: 0, ActAge: 3},
		DigestReport{Digest: 0xdeadbeefcafef00d, Codes: codes, Incumbent: 2, ActAge: 1},
		DigestReport{Digest: 3, table: tableOf(tableCodes()...)},
		SubtreeRequest{Prefix: codes[1], Full: true, Incumbent: 9, ActAge: 4},
		SubtreeRequest{Prefix: code.Root(), Incumbent: -3},
		SubtreeReply{Prefix: codes[1], Leaf: true, table: tableOf(codes[2:]...), Incumbent: 5, ActAge: 2},
		SubtreeReply{Prefix: codes[2], Leaf: true, table: ctree.Done()},
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
	// Leaf reply whose subtree is cut off.
	buf, _ = Encode(nil, SubtreeReply{Leaf: true, Prefix: sampleCodes()[1], table: tableOf(tableCodes()...)})
	if _, _, err := Decode(buf[:len(buf)-1]); err == nil {
		t.Error("truncated subtree accepted")
	}
	// Report whose trie is cut off.
	buf, _ = Encode(nil, Report{Codes: tableCodes()})
	if _, _, err := Decode(buf[:len(buf)-1]); err == nil {
		t.Error("truncated trie accepted")
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

// TestHeartbeatRoundTrip: the membership heartbeat table encodes to exactly
// Size bytes and decodes to itself, bare and instance-tagged alike, and a
// count the frame cannot hold is refused before anything is allocated.
func TestHeartbeatRoundTrip(t *testing.T) {
	for _, m := range []Heartbeat{
		{Beats: []Beat{{ID: 0, Count: 1}, {ID: 7, Count: 300}, {ID: 1 << 20, Count: math.MaxUint64}},
			Incumbent: -3, ActAge: 0.5},
		{Incumbent: math.Inf(1), ActAge: math.Inf(1)},
	} {
		for _, inst := range []InstanceID{0, 300} {
			im := InstMsg{Instance: inst, Msg: m}
			buf, err := Encode(nil, im)
			if err != nil {
				t.Fatal(err)
			}
			if len(buf) != im.Size() {
				t.Errorf("inst %d: Size() = %d but Encode produced %d bytes", inst, im.Size(), len(buf))
			}
			gotInst, got, n, err := DecodeInstance(buf)
			if err != nil || gotInst != inst || n != len(buf) || !reflect.DeepEqual(got, Msg(m)) {
				t.Errorf("inst %d: decoded %+v (inst %d, %d of %d bytes, %v), want %+v",
					inst, got, gotInst, n, len(buf), err, m)
			}
		}
	}
	empty, _ := Encode(nil, Heartbeat{})
	lie := append(empty[:len(empty)-1:len(empty)-1], 0xff, 0xff, 0x03, 1, 1)
	if _, _, err := Decode(lie); err == nil {
		t.Error("a heartbeat claiming 65 535 beats in 4 bytes decoded")
	}
	if KindName(KindHeartbeat) != "heartbeat" {
		t.Errorf("KindName(KindHeartbeat) = %q", KindName(KindHeartbeat))
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
		SubtreeReply{Prefix: codes[1], Leaf: true, table: tableOf(codes[2:]...), Incumbent: 5},
		Report{table: tableOf(tableCodes()...), Incumbent: 3},
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
	// Seeds 0–23: a message of every kind, then tagged ones. Six of them are
	// the bytes the codec wrote when reports, digest reports and leaf subtree
	// replies carried a front-coded code list; they are garbage now.
	var seeds [][]byte
	for _, m := range []Msg{
		Report{Codes: sampleCodes(), Incumbent: 1, ActAge: 2},
		TableMsg{Codes: tableCodes(), Incumbent: 3},
		WorkRequest{Incumbent: 4},
		WorkGrant{Codes: sampleCodes()[1:2], ActAge: 5},
		WorkDeny{},
		DigestReport{Digest: 0x1234, Codes: sampleCodes(), Incumbent: 6},
		SubtreeRequest{Prefix: sampleCodes()[1], Full: true},
		SubtreeReply{Leaf: true, Prefix: sampleCodes()[1], table: tableOf(sampleCodes()[2:]...)},
		SubtreeReply{Prefix: sampleCodes()[2], BranchVar: 3,
			Kids: [2]ctree.ChildDigest{{Present: true, Digest: 11}}},
		Hello{ID: 12, Addr: "127.0.0.1:8080", Incumbent: 7},
		Welcome{Peers: []Peer{{ID: 1, Addr: "a:1"}, {ID: 2}}, ActAge: 3},
		Ping{Incumbent: 1, ActAge: 2},
	} {
		seeds = append(seeds, mustEncode(f, m))
	}
	// Instance-scoped headers: tagged seeds for the flagged-kind path.
	for _, inst := range []InstanceID{1, 128, math.MaxUint32} {
		for _, m := range []Msg{
			Report{Codes: sampleCodes(), Incumbent: 1},
			WorkRequest{ActAge: 2},
			DigestReport{Digest: 0x77, Codes: sampleCodes()[:1]},
			Hello{ID: 3, Addr: "h:1"},
		} {
			seeds = append(seeds, mustEncode(f, InstMsg{Instance: inst, Msg: m}))
		}
	}
	for i, old := range map[int]string{
		0:  "01000000000000f03f00000000000000400300000202050001d904",
		5:  "060000000000001840000000000000000034120000000000000300000202050001d904",
		7:  "080000000000000000000000000000000001070202050101d904",
		12: "8101000000000000f03f00000000000000000300000202050001d904",
		16: "818001000000000000f03f00000000000000000300000202050001d904",
		20: "81ffffffff0f000000000000f03f00000000000000000300000202050001d904",
	} {
		seeds[i], _ = hex.DecodeString(old)
	}
	for _, b := range seeds {
		f.Add(b)
	}
	// Seeds 24–29: front-coded batches that lied about shared length, depth
	// and count, behind a report's scalars; garbage now.
	report := scalarsOf(f, Report{Incumbent: 1})
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
		{3, 2, 2, 4, 0, 2, 2, 4, 0x80, 0, 2, 2, 4},
	} {
		f.Add(append(report, batch...))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{KindDeny | 0x80})          // flagged kind, truncated varint
	f.Add([]byte{KindDeny | 0x80, 0})       // flagged instance 0 (non-canonical)
	f.Add([]byte{KindDeny | 0x80, 0xac, 2}) // flagged header, truncated scalars
	// Seeds 35–41, and 42–62 for the other trie-bodied kinds: table pushes,
	// reports, digest reports and leaf subtree replies whose body is a trie —
	// a real one of a few hundred vertices, a deep descent's frontier whose
	// decoded codes pass the listing bound, and near misses: a pair of
	// complete children, a count the tags leave open, nonzero padding bits, a
	// padded variable, a count the frame cannot hold.
	push := ctree.New()
	for i, c := range fakeLeaves(9) {
		if i%3 != 0 && i%7 != 0 {
			push.Insert(c)
		}
	}
	tries := [][]byte{
		push.Encode(nil),
		spineEncoding(2000),
		{3, 0x03, 5},
		{2, 0x03, 5},
		{1, 0x04},
		{2, 0x01, 0x85, 0x00},
		{0xff, 0xff, 0x03, 0, 0},
	}
	for _, head := range [][]byte{
		scalarsOf(f, TableMsg{Incumbent: 1}),
		report,
		scalarsOf(f, DigestReport{Digest: 0x99}),
		scalarsOf(f, SubtreeReply{Leaf: true, Prefix: sampleCodes()[1]}),
	} {
		for _, body := range tries {
			f.Add(append(head, body...))
		}
	}
	// Plain lists that lie about count and depth — a grant's, and a set
	// spelled as a list — and a grant of one code 3 000 deep.
	grant := scalarsOf(f, WorkGrant{Incumbent: 2})
	for _, head := range [][]byte{grant, append(report, listMark...)} {
		for _, body := range [][]byte{
			{200, 1, 0},
			{2, 1, 2, 100, 6, 6},
			{2, 1, 2, 3, 6},
			{0x80},
		} {
			f.Add(append(head, body...))
		}
	}
	f.Add(mustEncode(f, WorkGrant{Codes: []code.Code{descent(3000)}}))
	// The membership heartbeat, the last kind added.
	f.Add(mustEncode(f, Heartbeat{Beats: []Beat{{ID: 0, Count: 9}, {ID: 300, Count: 1 << 40}}, Incumbent: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzInstanceDecode(t, data)
		m, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// The decoder's memory bounds. A trie takes two bits of input per
		// vertex, so a set message or a leaf subtree reply holds at most four
		// codes per byte, and the codes listed beside it at most maxListed
		// decisions per byte; a list takes a byte per decision.
		switch t2 := m.(type) {
		case Report, TableMsg, DigestReport, SubtreeReply:
			if k := setLen(m); k > 4*n {
				t.Fatalf("%d bytes decoded to a %T of %d codes", n, m, k)
			}
			if d := decisions(setCodes(m)); d > maxListed*n {
				t.Fatalf("%d bytes decoded to %d listed decisions, the bound is %d per byte", n, d, maxListed)
			}
		case WorkGrant:
			if d := decisions(t2.Codes); d > n {
				t.Fatalf("%d bytes decoded to a grant of %d decisions", n, d)
			}
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

// mustEncode encodes a seed message.
func mustEncode(f *testing.F, m Msg) []byte {
	buf, err := Encode(nil, m)
	if err != nil {
		f.Fatal(err)
	}
	return buf
}

// scalarsOf returns m's encoding up to its last byte, clipped: for a message
// whose payload ends in an empty set, list or trie — one zero byte — that is
// the header, scalars and fixed fields a body may follow.
func scalarsOf(f *testing.F, m Msg) []byte {
	buf := mustEncode(f, m)
	return slices.Clip(buf[:len(buf)-1])
}

// setLen counts the codes a set message or a leaf subtree reply carries.
func setLen(m Msg) int {
	if im, ok := m.(InstMsg); ok {
		m = im.Msg
	}
	switch t := m.(type) {
	case Report:
		return t.Len()
	case TableMsg:
		return t.Len()
	case DigestReport:
		return t.Len()
	case SubtreeReply:
		return t.Len()
	}
	return 0
}

// setCodes returns the codes a decoded set message lists.
func setCodes(m Msg) []code.Code {
	switch t := m.(type) {
	case Report:
		return t.Codes
	case TableMsg:
		return t.Codes
	case DigestReport:
		return t.Codes
	}
	return nil
}

func decisions(cs []code.Code) (n int) {
	for _, c := range cs {
		n += len(c)
	}
	return n
}

// descent returns a code depth decisions deep, on variables 7·i, branching
// 0 and 1 by turns: a depth-first descent's current problem.
func descent(depth int) code.Code {
	c := code.Root()
	for i := 0; i < depth; i++ {
		c = c.AppendChild(uint32(7*i), uint8(i&1))
	}
	return c
}

// descentTable returns the table a depth-first descent leaves behind: the
// sibling of every problem on its path complete, depth codes of up to depth
// decisions in a trie of 2·depth vertices.
func descentTable(t *testing.T, depth int) *ctree.Table {
	t.Helper()
	tb := ctree.New()
	spine := descent(depth)
	for i := 1; i <= depth; i++ {
		if _, err := tb.Insert(spine[:i].Sibling()); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// deepMessages returns a message of every code-carrying kind whose codes go
// depth levels down: the set kinds carry a descent's table tb, the grant and
// the subtree request and branch reply a code of that depth.
func deepMessages(tb *ctree.Table, depth int) []Msg {
	s := tb.Snapshot()
	spine := descent(depth)
	return []Msg{
		Report{table: s, Incumbent: 1},
		TableMsg{table: s, Incumbent: 2},
		DigestReport{Digest: 3, table: s},
		SubtreeReply{Leaf: true, Prefix: spine[:3], table: s},
		WorkGrant{Codes: []code.Code{spine, spine.Sibling()}},
		SubtreeRequest{Prefix: spine},
		SubtreeReply{Prefix: spine, BranchVar: 9, Kids: [2]ctree.ChildDigest{{Present: true, Digest: 4}}},
		InstMsg{Instance: 9, Msg: Report{table: s}},
	}
}

// TestDeepCodesRoundTrip: every kind that carries codes goes as deep as a
// table holds. A depth-first descent D levels down leaves a frontier of
// D²/2 decisions that its trie holds in about 2.5 bytes a level, and a grant
// or a prefix of one deep code takes a byte or two a level; nothing is
// refused for depth or density, and each decodes, bounded by its input, to
// the same codes and re-encodes byte for byte — here at 100, 1 200 and 3 000
// levels and at 2^17, a crafted spine. The decoded set messages list their
// frontier as Codes only while that is within maxListed decisions a byte.
func TestDeepCodesRoundTrip(t *testing.T) {
	for _, depth := range []int{100, 1200, 3000, 1 << 17} {
		var tb *ctree.Table
		if depth < 1<<17 {
			tb = descentTable(t, depth)
		} else {
			var err error
			if tb, err = ctree.Decode(spineEncoding(depth)); err != nil || tb.Len() != depth {
				t.Fatalf("a %d-level spine: %v", depth, err)
			}
		}
		listed := tb.Decisions() <= maxListed*tb.EncodedSize()
		for _, m := range deepMessages(tb, depth) {
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
			if k, want := setLen(got), setLen(m); k != want {
				t.Errorf("depth %d: decoded %T of %d codes, want %d", depth, got, k, want)
			}
			if _, set := got.(SubtreeReply); !set && setLen(got) > 0 && (setCodes(got) != nil) != listed {
				t.Errorf("depth %d: decoded %T lists its codes %v, want %v", depth, got, setCodes(got) != nil, listed)
			}
		}
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
