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
//	payload := set                                    (report, table)
//	         | list                                   (grant)
//	         | u8(0) | u8(1) trie | u8(2) u64le(digest) (request: bare,
//	                                                   table push, digest push)
//	         | u64le(digest) set                      (digest report)
//	         | u8(full) code                          (subtree request)
//	         | u8(1) code trie                        (subtree reply, leaf)
//	         | u8(0) code uvarint(var) u8(mask) digests     (…, branch)
//	set     := trie | 0x80 0x00 list
//	trie    := uvarint(V) tags {uvarint(var)}            (ctree.Table.Encode)
//	tags    := ⌈V/4⌉ bytes, a 2-bit tag per vertex in pre-order, branch 0
//	           first, low bits first: 00 complete leaf, 01 / 10 only child
//	           0 / 1, 11 both children; one var per inner (nonzero) tag.
//	           V = 0 is the empty table
//	list    := uvarint(count) {code}                     (code.AppendList)
//	code    := uvarint(depth) {uvarint(var<<1|branch)}   (code.Code.Append)
//
// A set of codes — a report's, a table push's, a leaf subtree reply's
// subtree, relative to the code before it — is a trie. A work request's body
// says which table push rides it, if any (WorkRequest): a push carried by a
// request is the same trie a TableMsg carries, or the digest a bare
// DigestReport push carries, and never a list. A grant's codes are a
// list: pool entries, not a contracted set. A set goes as a list only when a
// hand-built message carries codes and no trie; the 0x80 0x00 before it is a
// padded zero, which no trie starts with.
// A trie takes two bits of input per vertex and a list a byte per decision,
// so what a message decodes to is bounded by its size at any depth.
//
// The encoding is self-delimiting, so messages can be concatenated; Decode
// returns the number of bytes consumed. Encode produces exactly Size() bytes.

// Encode appends the wire encoding of m to dst and returns the extended
// slice. An InstMsg encodes the instance-scoped header (instance 0 unwraps to
// the legacy bytes); anything else encodes exactly as before instances
// existed. It fails only on a message type outside the canonical set.
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
	switch t := m.(type) {
	case Report:
		put(KindReport, t.Incumbent, t.ActAge)
		dst = t.set().appendTo(dst)
	case TableMsg:
		put(KindTable, t.Incumbent, t.ActAge)
		dst = t.set().appendTo(dst)
	case WorkRequest:
		put(KindRequest, t.Incumbent, t.ActAge)
		dst = append(dst, t.push)
		switch t.push {
		case pushTable:
			dst = t.table.Encode(dst)
		case pushDigest:
			dst = binary.LittleEndian.AppendUint64(dst, t.digest)
		}
	case WorkGrant:
		put(KindGrant, t.Incumbent, t.ActAge)
		dst = code.AppendList(dst, t.Codes)
	case WorkDeny:
		put(KindDeny, t.Incumbent, t.ActAge)
	case DigestReport:
		put(KindDigestReport, t.Incumbent, t.ActAge)
		dst = binary.LittleEndian.AppendUint64(dst, t.Digest)
		dst = t.set().appendTo(dst)
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
			dst = t.Prefix.Append(dst)
			dst = t.trie().Encode(dst)
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
	case Ping:
		put(KindPing, t.Incumbent, t.ActAge)
	case Heartbeat:
		put(KindHeartbeat, t.Incumbent, t.ActAge)
		dst = binary.AppendUvarint(dst, uint64(len(t.Beats)))
		for _, b := range t.Beats {
			dst = binary.AppendUvarint(dst, uint64(b.ID))
			dst = binary.AppendUvarint(dst, b.Count)
		}
	default:
		return nil, fmt.Errorf("protocol: cannot encode %T", m)
	}
	return dst, nil
}

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
	switch kind {
	case KindReport:
		s, n, err := decodeSet(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("protocol: report: %w", err)
		}
		return Report{Codes: s.codes, table: s.table, Incumbent: incumbent, ActAge: actAge}, off + n, nil
	case KindTable:
		s, n, err := decodeSet(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("protocol: table: %w", err)
		}
		return TableMsg{Codes: s.codes, table: s.table, Incumbent: incumbent, ActAge: actAge}, off + n, nil
	case KindRequest:
		if len(buf) < off+1 {
			return nil, 0, errors.New("protocol: truncated work request")
		}
		m := WorkRequest{push: buf[off], Incumbent: incumbent, ActAge: actAge}
		off++
		switch m.push {
		case pushNone:
		case pushTable:
			tb, n, err := decodeTrie(buf[off:])
			if err != nil {
				return nil, 0, fmt.Errorf("protocol: work request push: %w", err)
			}
			m.table = tb
			off += n
		case pushDigest:
			if len(buf) < off+8 {
				return nil, 0, errors.New("protocol: truncated work request digest")
			}
			m.digest = binary.LittleEndian.Uint64(buf[off:])
			off += 8
		default:
			return nil, 0, fmt.Errorf("protocol: bad work request push %#x", m.push)
		}
		return m, off, nil
	case KindGrant:
		cs, n, err := code.DecodeList(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("protocol: grant codes: %w", err)
		}
		return WorkGrant{Codes: cs, Incumbent: incumbent, ActAge: actAge}, off + n, nil
	case KindDeny:
		return WorkDeny{Incumbent: incumbent, ActAge: actAge}, off, nil
	case KindDigestReport:
		if len(buf) < off+8 {
			return nil, 0, errors.New("protocol: truncated digest")
		}
		digest := binary.LittleEndian.Uint64(buf[off:])
		off += 8
		s, n, err := decodeSet(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("protocol: digest report: %w", err)
		}
		return DigestReport{Digest: digest, Codes: s.codes, table: s.table, Incumbent: incumbent, ActAge: actAge}, off + n, nil
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
		prefix, n, err := code.Decode(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("protocol: subtree reply prefix: %w", err)
		}
		off += n
		m := SubtreeReply{Prefix: prefix, Leaf: leaf, Incumbent: incumbent, ActAge: actAge}
		if leaf {
			if m.table, n, err = decodeTrie(buf[off:]); err != nil {
				return nil, 0, fmt.Errorf("protocol: subtree reply: %w", err)
			}
			return m, off + n, nil
		}
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
		m.BranchVar = uint32(bv)
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
		return Hello{ID: NodeID(id), Incumbent: incumbent, ActAge: actAge}, off, nil
	case KindPing:
		return Ping{Incumbent: incumbent, ActAge: actAge}, off, nil
	case KindHeartbeat:
		cnt, n := binary.Uvarint(buf[off:])
		if n <= 0 || cnt > uint64(len(buf)-off)/2 {
			return nil, 0, errors.New("protocol: bad heartbeat count")
		}
		off += n
		m := Heartbeat{Incumbent: incumbent, ActAge: actAge}
		if cnt > 0 {
			m.Beats = make([]Beat, 0, cnt)
		}
		for ; cnt > 0; cnt-- {
			id, n1 := binary.Uvarint(buf[off:])
			c, n2 := binary.Uvarint(buf[off+max(n1, 0):])
			if n1 <= 0 || n2 <= 0 || id > math.MaxInt32 {
				return nil, 0, errors.New("protocol: bad heartbeat entry")
			}
			off += n1 + n2
			m.Beats = append(m.Beats, Beat{ID: NodeID(id), Count: c})
		}
		return m, off, nil
	default:
		return nil, 0, fmt.Errorf("protocol: unknown message kind %d", kind)
	}
}

// decodeSet reads a set body from the front of buf: a trie, whose frontier it
// also lists unless that holds more than maxListed decisions per byte, or
// behind listMark a list.
func decodeSet(buf []byte) (codeSet, int, error) {
	if len(buf) >= len(listMark) && string(buf[:len(listMark)]) == listMark {
		cs, n, err := code.DecodeList(buf[len(listMark):])
		return codeSet{codes: cs}, len(listMark) + n, err
	}
	tb, n, err := decodeTrie(buf)
	if err != nil {
		return codeSet{}, 0, err
	}
	s := codeSet{table: tb}
	if tb.Decisions() <= maxListed*n {
		s.codes = tb.Codes()
	}
	return s, n, nil
}

// decodeTrie reads a trie from the front of buf. The empty one — a bare
// digest push's, an empty subtree's — is the shared ctree.Empty, so decoding
// it allocates no table.
func decodeTrie(buf []byte) (*ctree.Table, int, error) {
	if len(buf) > 0 && buf[0] == 0 {
		return ctree.Empty(), 1, nil
	}
	return ctree.DecodeOne(buf)
}
