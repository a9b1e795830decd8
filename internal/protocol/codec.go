package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"gossipbnb/internal/code"
	"gossipbnb/internal/ctree"
)

// The canonical binary encoding, shared by every transport that needs bytes
// (the TCP runtime today; any future wire goes through the same codec):
//
//	msg     := header f64le(incumbent) f64le(actAge) [payload]
//	header  := u8(kind)                               (instance 0, legacy)
//	         | u8(kind|0x80) uvarint(instance)        (instance-scoped)
//	payload := codes                                  (report, grant)
//	         | trie                                   (table)
//	         | u64le(digest) codes                    (digest report)
//	         | u8(full) prefix                        (subtree request)
//	         | u8(1) uvarint(len) subtree             (subtree reply, leaf)
//	         | u8(0) prefix uvarint(var) u8(mask) digests   (…, branch)
//	codes   := uvarint(count) [code {uvarint(shared) code'}]   (code.AppendAll)
//	code    := uvarint(depth) {uvarint(var<<1|branch)}         (code.Code.Append)
//	code'   := code with its first shared decisions left out: they are those
//	           of the code before (front coding; frontiers go in prefix order)
//	prefix  := code
//	subtree := ctree.EncodeSubtree encoding (length-prefixed so the hardened
//	           whole-buffer ctree.DecodeSubtree validates it in place)
//	trie    := uvarint(V) tags {uvarint(var)}            (ctree.Table.Encode)
//	tags    := ⌈V/4⌉ bytes, a 2-bit tag per vertex in pre-order, branch 0
//	           first, low bits first: 00 complete leaf, 01 / 10 only child
//	           0 / 1, 11 both children; one var per inner (nonzero) tag.
//	           V = 0 is the empty table
//
// The encoding is self-delimiting, so messages can be concatenated; Decode
// returns the number of bytes consumed. Encode produces exactly Size() bytes.

// Encode appends the wire encoding of m to dst and returns the extended
// slice. An InstMsg encodes the instance-scoped header (instance 0 unwraps to
// the legacy bytes); anything else encodes exactly as before instances
// existed. It fails on a message type outside the canonical set, with
// code.ErrExpand on a code batch so deep and so shared that the receiver's
// decoder would refuse it, and on a hand-built table push whose codes branch
// one subproblem on two variables, which no table holds.
func Encode(dst []byte, m Msg) ([]byte, error) {
	var inst InstanceID
	if im, ok := m.(InstMsg); ok {
		inst, m = im.Instance, im.Msg
		if _, nested := m.(InstMsg); nested {
			return nil, errors.New("protocol: nested InstMsg")
		}
	}
	put := func(kind byte, incumbent, actAge float64) {
		if inst != 0 {
			dst = append(dst, kind|instanceFlag)
			dst = binary.AppendUvarint(dst, uint64(inst))
		} else {
			dst = append(dst, kind)
		}
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(incumbent))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(actAge))
	}
	var err error // a message has one code batch at most
	putCodes := func(cs []code.Code) {
		at := len(dst)
		dst = code.AppendAll(dst, cs)
		err = code.CheckExpand(cs, len(dst)-at)
	}
	switch t := m.(type) {
	case Report:
		put(KindReport, t.Incumbent, t.ActAge)
		putCodes(t.Codes)
	case TableMsg:
		put(KindTable, t.Incumbent, t.ActAge)
		tb, errs := t.trie()
		if errs > 0 {
			return nil, fmt.Errorf("protocol: %d table push codes branch a subproblem on another variable", errs)
		}
		dst = tb.Encode(dst)
	case WorkRequest:
		put(KindRequest, t.Incumbent, t.ActAge)
	case WorkGrant:
		put(KindGrant, t.Incumbent, t.ActAge)
		putCodes(t.Codes)
	case WorkDeny:
		put(KindDeny, t.Incumbent, t.ActAge)
	case DigestReport:
		put(KindDigestReport, t.Incumbent, t.ActAge)
		dst = binary.LittleEndian.AppendUint64(dst, t.Digest)
		putCodes(t.Codes)
	case SubtreeRequest:
		put(KindSubtreeRequest, t.Incumbent, t.ActAge)
		var full byte
		if t.Full {
			full = 1
		}
		dst = append(dst, full)
		dst = t.Prefix.Append(dst)
	case SubtreeReply:
		put(KindSubtreeReply, t.Incumbent, t.ActAge)
		if t.Leaf {
			dst = append(dst, 1)
			sec := ctree.SubtreeWireSize(t.Prefix, t.Rel)
			dst = binary.AppendUvarint(dst, uint64(sec))
			dst = ctree.EncodeSubtree(dst, t.Prefix, t.Rel)
			err = code.CheckExpand(t.Rel, sec-t.Prefix.WireSize())
		} else {
			dst = append(dst, 0)
			dst = t.Prefix.Append(dst)
			dst = binary.AppendUvarint(dst, uint64(t.BranchVar))
			var mask byte
			for b, k := range t.Kids {
				if k.Present {
					mask |= 1 << b
				}
			}
			dst = append(dst, mask)
			for _, k := range t.Kids {
				if k.Present {
					dst = binary.LittleEndian.AppendUint64(dst, k.Digest)
				}
			}
		}
	case Hello:
		put(KindHello, t.Incumbent, t.ActAge)
		dst = binary.AppendUvarint(dst, uint64(t.ID))
		dst = binary.AppendUvarint(dst, uint64(len(t.Addr)))
		dst = append(dst, t.Addr...)
	case Welcome:
		put(KindWelcome, t.Incumbent, t.ActAge)
		dst = binary.AppendUvarint(dst, uint64(len(t.Peers)))
		for _, p := range t.Peers {
			dst = binary.AppendUvarint(dst, uint64(p.ID))
			dst = binary.AppendUvarint(dst, uint64(len(p.Addr)))
			dst = append(dst, p.Addr...)
		}
	case Ping:
		put(KindPing, t.Incumbent, t.ActAge)
	default:
		return nil, fmt.Errorf("protocol: cannot encode %T", m)
	}
	return dst, err
}

// maxAddrLen bounds address strings in Hello/Welcome payloads; real
// addresses are host:port strings, so anything longer is a corrupt frame.
const maxAddrLen = 1 << 10

// Decode reads one message from the front of buf, returning the message and
// the number of bytes consumed. Decode is the version-0 (single-instance)
// entry point: it rejects instance-scoped headers outright, so a legacy
// stream cannot smuggle the instance field onto kinds that predate it. Use
// DecodeInstance on multiplexed transports.
func Decode(buf []byte) (Msg, int, error) {
	if len(buf) > 0 && buf[0]&instanceFlag != 0 {
		return nil, 0, fmt.Errorf("protocol: instance-scoped kind byte %#x in a version-0 stream", buf[0])
	}
	if len(buf) < scalarSize {
		return nil, 0, errors.New("protocol: truncated message")
	}
	return decodeMsg(buf[0], buf, 1)
}

// DecodeInstance reads one message from the front of buf, returning its
// instance (0 for legacy headers), the message, and the bytes consumed. An
// instance-scoped header must carry a nonzero instance: the canonical
// encoding of instance 0 is the flagless legacy header, so a flagged zero is
// rejected as corrupt.
func DecodeInstance(buf []byte) (InstanceID, Msg, int, error) {
	if len(buf) == 0 || buf[0]&instanceFlag == 0 {
		m, n, err := Decode(buf)
		return 0, m, n, err
	}
	inst, n := binary.Uvarint(buf[1:])
	switch {
	case n <= 0:
		return 0, nil, 0, errors.New("protocol: truncated instance id")
	case inst == 0:
		return 0, nil, 0, errors.New("protocol: instance-scoped header with instance 0")
	case inst > math.MaxUint32:
		return 0, nil, 0, errors.New("protocol: instance id overflow")
	}
	off := 1 + n
	if len(buf) < off+16 {
		return 0, nil, 0, errors.New("protocol: truncated message")
	}
	m, consumed, err := decodeMsg(buf[0]&^instanceFlag, buf, off)
	if err != nil {
		return 0, nil, 0, err
	}
	return InstanceID(inst), m, consumed, nil
}

// decodeMsg decodes the scalars and payload of one message whose kind byte
// (instance flag already stripped) is kind; off points at the incumbent
// scalar, with at least 16 bytes available.
func decodeMsg(kind byte, buf []byte, off int) (Msg, int, error) {
	incumbent := math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
	actAge := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:]))
	off += 16
	readCodes := func() ([]code.Code, error) {
		cs, n, err := code.DecodeAll(buf[off:])
		if err != nil {
			return nil, err
		}
		off += n
		return cs, nil
	}
	switch kind {
	case KindReport:
		cs, err := readCodes()
		if err != nil {
			return nil, 0, fmt.Errorf("protocol: report codes: %w", err)
		}
		return Report{Codes: cs, Incumbent: incumbent, ActAge: actAge}, off, nil
	case KindTable:
		tb, n, err := ctree.DecodeOne(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("protocol: table: %w", err)
		}
		off += n
		m := TableMsg{table: tb, Incumbent: incumbent, ActAge: actAge}
		if tb.Decisions() <= code.MaxExpand*n {
			m.Codes = tb.Codes()
		}
		return m, off, nil
	case KindRequest:
		return WorkRequest{Incumbent: incumbent, ActAge: actAge}, off, nil
	case KindGrant:
		cs, err := readCodes()
		if err != nil {
			return nil, 0, fmt.Errorf("protocol: grant codes: %w", err)
		}
		return WorkGrant{Codes: cs, Incumbent: incumbent, ActAge: actAge}, off, nil
	case KindDeny:
		return WorkDeny{Incumbent: incumbent, ActAge: actAge}, off, nil
	case KindDigestReport:
		if len(buf) < off+8 {
			return nil, 0, errors.New("protocol: truncated digest")
		}
		digest := binary.LittleEndian.Uint64(buf[off:])
		off += 8
		cs, err := readCodes()
		if err != nil {
			return nil, 0, fmt.Errorf("protocol: digest report codes: %w", err)
		}
		return DigestReport{Digest: digest, Codes: cs, Incumbent: incumbent, ActAge: actAge}, off, nil
	case KindSubtreeRequest:
		if len(buf) < off+1 {
			return nil, 0, errors.New("protocol: truncated subtree request")
		}
		full := buf[off] == 1
		off++
		prefix, n, err := code.Decode(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("protocol: subtree request prefix: %w", err)
		}
		off += n
		return SubtreeRequest{Prefix: prefix, Full: full, Incumbent: incumbent, ActAge: actAge}, off, nil
	case KindSubtreeReply:
		if len(buf) < off+1 {
			return nil, 0, errors.New("protocol: truncated subtree reply")
		}
		leaf := buf[off] == 1
		off++
		m := SubtreeReply{Leaf: leaf, Incumbent: incumbent, ActAge: actAge}
		if leaf {
			sec, n := binary.Uvarint(buf[off:])
			if n <= 0 || sec > uint64(len(buf)-off-n) {
				return nil, 0, errors.New("protocol: bad subtree section length")
			}
			off += n
			prefix, rel, err := ctree.DecodeSubtree(buf[off : off+int(sec)])
			if err != nil {
				return nil, 0, fmt.Errorf("protocol: subtree reply: %w", err)
			}
			off += int(sec)
			m.Prefix, m.Rel = prefix, rel
			return m, off, nil
		}
		prefix, n, err := code.Decode(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("protocol: subtree reply prefix: %w", err)
		}
		off += n
		bv, n := binary.Uvarint(buf[off:])
		if n <= 0 || bv > math.MaxUint32 {
			return nil, 0, errors.New("protocol: bad subtree branch var")
		}
		off += n
		if len(buf) < off+1 {
			return nil, 0, errors.New("protocol: truncated subtree child mask")
		}
		mask := buf[off]
		off++
		if mask > 3 {
			return nil, 0, fmt.Errorf("protocol: bad subtree child mask %#x", mask)
		}
		m.Prefix, m.BranchVar = prefix, uint32(bv)
		for b := 0; b < 2; b++ {
			if mask&(1<<b) == 0 {
				continue
			}
			if len(buf) < off+8 {
				return nil, 0, errors.New("protocol: truncated child digest")
			}
			m.Kids[b] = ctree.ChildDigest{Present: true, Digest: binary.LittleEndian.Uint64(buf[off:])}
			off += 8
		}
		return m, off, nil
	case KindHello:
		id, n := binary.Uvarint(buf[off:])
		if n <= 0 || id > math.MaxInt32 {
			return nil, 0, errors.New("protocol: bad hello id")
		}
		off += n
		addr, n, err := decodeAddr(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("protocol: hello: %w", err)
		}
		off += n
		return Hello{ID: NodeID(id), Addr: addr, Incumbent: incumbent, ActAge: actAge}, off, nil
	case KindWelcome:
		cnt, n := binary.Uvarint(buf[off:])
		if n <= 0 || cnt > uint64(len(buf)-off) {
			return nil, 0, errors.New("protocol: bad welcome count")
		}
		off += n
		var peers []Peer
		if cnt > 0 {
			peers = make([]Peer, 0, cnt)
		}
		for i := uint64(0); i < cnt; i++ {
			id, n := binary.Uvarint(buf[off:])
			if n <= 0 || id > math.MaxInt32 {
				return nil, 0, errors.New("protocol: bad welcome peer id")
			}
			off += n
			addr, n, err := decodeAddr(buf[off:])
			if err != nil {
				return nil, 0, fmt.Errorf("protocol: welcome: %w", err)
			}
			off += n
			peers = append(peers, Peer{ID: NodeID(id), Addr: addr})
		}
		return Welcome{Peers: peers, Incumbent: incumbent, ActAge: actAge}, off, nil
	case KindPing:
		return Ping{Incumbent: incumbent, ActAge: actAge}, off, nil
	default:
		return nil, 0, fmt.Errorf("protocol: unknown message kind %d", kind)
	}
}

// decodeAddr reads one length-prefixed address string, returning it and the
// bytes consumed.
func decodeAddr(buf []byte) (string, int, error) {
	l, n := binary.Uvarint(buf)
	if n <= 0 || l > maxAddrLen || l > uint64(len(buf)-n) {
		return "", 0, errors.New("bad address length")
	}
	return string(buf[n : n+int(l)]), n + int(l), nil
}
