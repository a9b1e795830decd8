// Package code implements the tree-based subproblem encoding at the heart of
// the paper's fault-tolerance mechanism (§5.3.1).
//
// A branch-and-bound tree with branching factor 2 decomposes a problem by
// deciding one condition variable per level. A subproblem is therefore fully
// described by the sequence of ⟨variable, branch⟩ pairs on the path from the
// root to its node: the code. Codes are self-contained — together with the
// initial problem data, a code suffices to reconstruct and solve the
// subproblem on any processor — which is what makes loss recovery possible
// without checkpointing process state.
//
// On the wire a code is its depth and then one varint per decision (Append),
// and a list of codes, the form of a work grant, is those back to back behind
// a count (AppendList). A set of codes, such as a work report, is not a list:
// it travels as the trie of its contracted table (package ctree).
package code

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"unsafe"
)

// Decision is a single branching decision: condition variable Var was fixed
// to Branch (0 = left subtree, 1 = right subtree).
type Decision struct {
	Var    uint32
	Branch uint8
}

// Code identifies a node of the B&B tree by the decisions on its root path.
// The empty code identifies the root (the original problem). Codes are value
// types; operations never mutate their receiver.
type Code []Decision

// Root returns the code of the original problem.
func Root() Code { return Code{} }

// IsRoot reports whether c encodes the original problem.
func (c Code) IsRoot() bool { return len(c) == 0 }

// Depth returns the depth of the encoded node (root = 0).
func (c Code) Depth() int { return len(c) }

// Leaf reports the final decision of the code. It panics on the root code.
func (c Code) Leaf() Decision {
	if len(c) == 0 {
		panic("code: Leaf of root code")
	}
	return c[len(c)-1]
}

// Parent returns the code of the node's parent. The result shares no storage
// with c. It panics on the root code.
func (c Code) Parent() Code {
	if len(c) == 0 {
		panic("code: Parent of root code")
	}
	p := make(Code, len(c)-1)
	copy(p, c[:len(c)-1])
	return p
}

// Sibling returns the code of the node's sibling: the same path with the
// final branch flipped. It panics on the root code.
func (c Code) Sibling() Code {
	if len(c) == 0 {
		panic("code: Sibling of root code")
	}
	s := make(Code, len(c))
	copy(s, c)
	s[len(s)-1].Branch ^= 1
	return s
}

// Child returns the code of the child reached by fixing variable v to branch b.
func (c Code) Child(v uint32, b uint8) Code {
	ch := make(Code, len(c)+1)
	copy(ch, c)
	ch[len(c)] = Decision{Var: v, Branch: b & 1}
	return ch
}

// Children returns the codes of both children of a branch on variable v,
// carved from one backing array: one allocation where two Child calls make two.
// Each is capacity-clipped, so neither an append to one nor a write past its
// end can reach the other, and neither shares storage with c.
func (c Code) Children(v uint32) (zero, one Code) {
	n := len(c) + 1
	both := make(Code, 2*n)
	copy(both, c)
	copy(both[n:], c)
	both[n-1] = Decision{Var: v, Branch: 0}
	both[2*n-1] = Decision{Var: v, Branch: 1}
	return both[:n:n], both[n:]
}

// AppendChild appends the decision ⟨v,b⟩ to c in place, like append: the
// result shares c's storage when capacity allows. It is the
// append-into-scratch counterpart of Child for callers that own a reusable
// prefix buffer (the completion-table walks); everyone else should use Child,
// which never aliases.
func (c Code) AppendChild(v uint32, b uint8) Code {
	return append(c, Decision{Var: v, Branch: b & 1})
}

// Clone returns a copy of c that shares no storage with it.
func (c Code) Clone() Code {
	d := make(Code, len(c))
	copy(d, c)
	return d
}

// Equal reports whether c and d encode the same node.
func (c Code) Equal(d Code) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// IsAncestorOf reports whether c is a proper ancestor of d, i.e. c's decision
// sequence is a proper prefix of d's. The completion of an ancestor implies
// the completion of all of its descendants, which is what lets work-report
// tables discard subsumed codes.
func (c Code) IsAncestorOf(d Code) bool {
	if len(c) >= len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// SiblingOf reports whether c and d are siblings: equal-length codes that
// agree on every decision except the final branch.
func (c Code) SiblingOf(d Code) bool {
	n := len(c)
	if n == 0 || n != len(d) {
		return false
	}
	for i := 0; i < n-1; i++ {
		if c[i] != d[i] {
			return false
		}
	}
	return c[n-1].Var == d[n-1].Var && c[n-1].Branch != d[n-1].Branch
}

// Compare orders codes first by depth, then lexicographically by decisions.
// It returns -1, 0, or +1. The ordering is used only to make report contents
// deterministic; it has no protocol meaning.
func (c Code) Compare(d Code) int {
	switch {
	case len(c) < len(d):
		return -1
	case len(c) > len(d):
		return 1
	}
	for i := range c {
		switch {
		case c[i].Var < d[i].Var:
			return -1
		case c[i].Var > d[i].Var:
			return 1
		case c[i].Branch < d[i].Branch:
			return -1
		case c[i].Branch > d[i].Branch:
			return 1
		}
	}
	return 0
}

// String renders the code in the paper's notation: (<x1,0>,<x2,1>).
// The root code renders as ().
func (c Code) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, d := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "<x%d,%d>", d.Var, d.Branch)
	}
	b.WriteByte(')')
	return b.String()
}

// Parse is the inverse of String. It accepts the paper's notation with
// arbitrary interior whitespace.
func Parse(s string) (Code, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '(' || s[len(s)-1] != ')' {
		return nil, errors.New("code: parse: missing parentheses")
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	if inner == "" {
		return Root(), nil
	}
	var c Code
	for _, tok := range strings.Split(inner, ">") {
		tok = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(tok), ","))
		if tok == "" {
			continue
		}
		var v uint32
		var b uint8
		if _, err := fmt.Sscanf(tok, "<x%d,%d", &v, &b); err != nil {
			return nil, fmt.Errorf("code: parse %q: %w", tok, err)
		}
		if b > 1 {
			return nil, fmt.Errorf("code: parse %q: branch must be 0 or 1", tok)
		}
		c = append(c, Decision{Var: v, Branch: b})
	}
	if c == nil {
		c = Root()
	}
	return c, nil
}

// Key returns a compact string usable as a map key. Two codes have equal keys
// iff they are Equal.
func (c Code) Key() string { return string(c.Append(nil)) }

// WireSize returns the number of bytes Append will produce for c. It is the
// size used by the simulator's communication-cost model.
func (c Code) WireSize() int {
	n := UvarintLen(uint64(len(c)))
	for _, d := range c {
		n += UvarintLen(uint64(d.Var)<<1 | uint64(d.Branch))
	}
	return n
}

// Append appends the binary encoding of c to dst and returns the extended
// slice. The format is: uvarint(depth), then per decision
// uvarint(var<<1 | branch). The format is self-delimiting so codes can be
// concatenated in a list (AppendList).
func (c Code) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(c)))
	for _, d := range c {
		dst = binary.AppendUvarint(dst, uint64(d.Var)<<1|uint64(d.Branch))
	}
	return dst
}

// EncodeInto encodes c into buf's storage, reusing its capacity: it is
// Append(buf[:0]). Callers that encode in a loop (framing, report flushes)
// keep one buffer alive instead of allocating per message.
func (c Code) EncodeInto(buf []byte) []byte {
	return c.Append(buf[:0])
}

// Decode reads one code from the front of buf, returning the code and the
// number of bytes consumed.
func Decode(buf []byte) (Code, int, error) {
	depth, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, 0, errors.New("code: decode: truncated depth")
	}
	if depth > uint64(len(buf)) { // each decision takes ≥1 byte
		return nil, 0, fmt.Errorf("code: decode: implausible depth %d", depth)
	}
	c := make(Code, 0, depth)
	off := n
	for i := uint64(0); i < depth; i++ {
		w, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return nil, 0, errors.New("code: decode: truncated decision")
		}
		off += n
		c = append(c, Decision{Var: uint32(w >> 1), Branch: uint8(w & 1)})
	}
	return c, off, nil
}

// ChunkLen caps the backing array a materialised frontier or a decoded list
// is carved from at 4 KB: a few pointer-free chunks, not one allocation per
// code, each a small-object size class (DESIGN.md "Completion-table hot path").
const ChunkLen = 4096 / int(unsafe.Sizeof(Decision{}))

// CommonPrefixLen returns the length of the longest common decision prefix.
func CommonPrefixLen(a, b Code) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// AppendList encodes a list of codes as it stands: uvarint(count), then each
// code as Append writes it. It is the wire form of a work grant, whose codes
// are pool entries and not a contracted set; a set of codes travels as its
// trie (ctree.Table.Encode).
func AppendList(dst []byte, cs []Code) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cs)))
	for _, c := range cs {
		dst = c.Append(dst)
	}
	return dst
}

// ListSize returns the number of bytes AppendList produces for cs.
func ListSize(cs []Code) int {
	n := UvarintLen(uint64(len(cs)))
	for _, c := range cs {
		n += c.WireSize()
	}
	return n
}

// DecodeList is the inverse of AppendList. It returns the codes, carved,
// capacity-clipped, from chunks of at most ChunkLen decisions, and the number
// of bytes consumed. Every decision and every code header takes a byte, so
// what it returns is bounded by its input: a count or a depth that the bytes
// left cannot hold is refused before anything is allocated for it.
func DecodeList(buf []byte) ([]Code, int, error) {
	count, off := binary.Uvarint(buf)
	switch {
	case off <= 0:
		return nil, 0, errors.New("code: decode: truncated count")
	case count > uint64(len(buf)-off):
		return nil, 0, fmt.Errorf("code: decode: implausible count %d", count)
	}
	cs := make([]Code, 0, count)
	chunk := Root() // empty, not nil: a decoded root code is Root(), as Decode's is
	for i := uint64(0); i < count; i++ {
		depth, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return nil, 0, errors.New("code: decode: truncated depth")
		}
		off += n
		if depth > uint64(len(buf)-off) {
			return nil, 0, fmt.Errorf("code: decode: implausible depth %d", depth)
		}
		if int(depth) > cap(chunk)-len(chunk) {
			chunk = make(Code, 0, max(int(depth), min(ChunkLen, len(buf)-off)))
		}
		at := len(chunk)
		for j := uint64(0); j < depth; j++ {
			w, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return nil, 0, errors.New("code: decode: truncated decision")
			}
			off += n
			chunk = append(chunk, Decision{Var: uint32(w >> 1), Branch: uint8(w & 1)})
		}
		cs = append(cs, chunk[at:len(chunk):len(chunk)])
	}
	return cs, off, nil
}

// UvarintLen returns the number of bytes binary.AppendUvarint writes for v.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
