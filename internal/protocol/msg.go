package protocol

import (
	"gossipbnb/internal/code"
	"gossipbnb/internal/ctree"
)

// Msg is a canonical wire message of the protocol. Size reports the wire
// encoding's length in bytes — it is exact: Encode produces Size() bytes.
// Kind reports the codec kind byte, which doubles as the dense index of the
// transports' per-kind byte accounting. The interface is structurally
// identical to sim.Message and live.Message, so canonical messages flow
// through either transport unchanged.
type Msg interface {
	Size() int
	Kind() byte
}

// InstanceID names one problem instance when several are multiplexed over a
// cluster. Zero is the legacy single instance: its messages encode
// bit-identically to the pre-instance wire format, so a one-problem cluster
// pays nothing for the namespace.
type InstanceID uint32

// InstMsg tags a canonical message with the instance it belongs to.
// Transports that carry many instances wrap outbound messages in InstMsg and
// route inbound ones by Instance; the embedded Msg keeps Kind (and thus
// per-kind accounting) transparent. Size counts the header's instance varint
// — zero extra bytes for instance 0.
type InstMsg struct {
	Instance InstanceID
	Msg
}

// Size implements Msg, adding the instance varint carried in the header.
func (m InstMsg) Size() int {
	if m.Instance == 0 {
		return m.Msg.Size()
	}
	return m.Msg.Size() + code.UvarintLen(uint64(m.Instance))
}

// instanceFlag is the kind-byte bit that marks an instance-scoped header: the
// encoded kind becomes kind|instanceFlag followed by uvarint(instance). Plain
// kinds stay below it, so version-0 decoders can reject flagged messages
// outright.
const instanceFlag byte = 0x80

// Message kind bytes, shared between the codec and the per-kind network
// accounting. Zero is deliberately invalid so an all-zero buffer never
// decodes (transports use it as the "unknown kind" accounting bucket).
const (
	KindReport byte = iota + 1
	KindTable
	KindRequest
	KindGrant
	KindDeny
	KindDigestReport
	KindSubtreeRequest
	KindSubtreeReply
	KindHello
	KindWelcome
	KindPing

	// KindCount bounds the dense kind space for accounting arrays.
	KindCount = int(KindPing) + 1
)

// KindName returns a short stable label for a kind byte, for CLI summaries
// and figure tables.
func KindName(k byte) string {
	switch k {
	case KindReport:
		return "report"
	case KindTable:
		return "table"
	case KindRequest:
		return "request"
	case KindGrant:
		return "grant"
	case KindDeny:
		return "deny"
	case KindDigestReport:
		return "digest"
	case KindSubtreeRequest:
		return "subreq"
	case KindSubtreeReply:
		return "subreply"
	case KindHello:
		return "hello"
	case KindWelcome:
		return "welcome"
	case KindPing:
		return "ping"
	}
	return "other"
}

// Every message carries two piggybacked scalars:
//
//   - Incumbent: the sender's best-known solution value — the paper solves
//     information sharing by embedding it "in the most frequently sent
//     messages" (§5);
//   - ActAge: how many seconds ago, as far as the sender knows, *some*
//     process in the system was actively computing (0 if the sender itself
//     is). Receivers keep the freshest evidence. This age diffuses
//     epidemically through the messages starving processes exchange anyway,
//     and gates failure recovery: a process only presumes work lost when the
//     whole system has looked inactive for a quiet window. Ages, unlike
//     timestamps, survive the unsynchronized clocks of §4. The paper notes
//     that "the lag in updating information can lead to faulty presumptions
//     on failure"; activity-age gossip is our implementation of the tuning
//     it prescribes.

// Report is a work report: a contracted batch of completed-problem codes
// (§5.3.2). A report whose only code is the root is the termination report
// of §5.4: broadcast by a process that detects termination, forwarded by the
// ones it tells, and a finished process's answer to a work request.
type Report struct {
	Codes     []code.Code
	Incumbent float64
	ActAge    float64

	codesSize int // see stampedSize
}

// Size implements Msg.
func (m Report) Size() int { return scalarSize + stampedSize(m.codesSize, m.Codes) }

// Kind implements Msg.
func (m Report) Kind() byte { return KindReport }

// TableMsg is the occasional full-table push "to inform new members of the
// current state of the execution and to increase the degree of consistency".
// Its payload is the sender's contracted table, and it travels as one: the
// codec writes the trie (ctree.Table.Encode) and the receiving core merges it
// trie to trie. Core.SendTable ships the table's frozen snapshot
// (ctree.Table.Snapshot), with Codes nil; Decode rebuilds the sender's trie
// and also fills Codes with its frontier, unless that frontier holds more
// than code.MaxExpand decisions per byte of the body. A hand-built push
// carries Codes alone, and is encoded and sized as the table they build. Len
// and Frontier read any form.
type TableMsg struct {
	Codes     []code.Code
	Incumbent float64
	ActAge    float64

	table *ctree.Table // the sender's snapshot or the decoded trie, or nil
}

// Size implements Msg: the encoded table's size, which a table keeps as a
// running sum, so sizing a pushed or decoded message walks nothing.
func (m TableMsg) Size() int {
	t, _ := m.trie()
	return scalarSize + t.EncodedSize()
}

// trie returns the table the push carries: its snapshot or decoded trie, or
// for a hand-built push the table its Codes build, with the number of codes
// that branched a vertex on another variable than an earlier one.
func (m TableMsg) trie() (*ctree.Table, int) {
	if m.table != nil {
		return m.table, 0
	}
	t := ctree.New()
	_, errs := t.InsertAll(m.Codes)
	return t, errs
}

// Len returns the number of frontier codes the push carries.
func (m TableMsg) Len() int {
	if m.table != nil {
		return m.table.Len()
	}
	return len(m.Codes)
}

// Frontier returns the codes the push carries: Codes, or the table's
// frontier materialised afresh — what a Sender that inspects pushes reads.
func (m TableMsg) Frontier() []code.Code {
	if m.table != nil && m.Codes == nil {
		return m.table.Codes()
	}
	return m.Codes
}

// Kind implements Msg.
func (m TableMsg) Kind() byte { return KindTable }

// WorkRequest asks a randomly chosen member for problems.
type WorkRequest struct {
	Incumbent float64
	ActAge    float64
}

// Size implements Msg.
func (m WorkRequest) Size() int { return scalarSize }

// Kind implements Msg.
func (m WorkRequest) Kind() byte { return KindRequest }

// WorkGrant transfers problems: codes suffice, because codes are
// self-contained (§5.3.1) — the receiver rebuilds bound and decomposition
// from the code plus the initial data every process holds.
type WorkGrant struct {
	Codes     []code.Code
	Incumbent float64
	ActAge    float64
}

// Size implements Msg.
func (m WorkGrant) Size() int { return scalarSize + code.WireSizeAll(m.Codes) }

// Kind implements Msg.
func (m WorkGrant) Kind() byte { return KindGrant }

// WorkDeny tells a requester its target has no work to spare, so the
// requester need not wait out the timeout.
type WorkDeny struct {
	Incumbent float64
	ActAge    float64
}

// Size implements Msg.
func (m WorkDeny) Size() int { return scalarSize }

// Kind implements Msg.
func (m WorkDeny) Kind() byte { return KindDeny }

// DigestReport is the diff-gossip work report: the same recent-delta codes a
// Report carries, plus the content digest of the sender's whole completion
// table (ctree.Table.Digest). The delta keeps steady-state convergence as
// cheap as legacy reports; the digest lets a receiver detect divergence
// beyond the delta — lost reports, a restart, a partition heal — and pull
// exactly the missing subtrees instead of waiting for a full-table push. A
// DigestReport with no codes is the diff-mode table push.
type DigestReport struct {
	Digest    uint64
	Codes     []code.Code
	Incumbent float64
	ActAge    float64

	codesSize int // see stampedSize
}

// Size implements Msg.
func (m DigestReport) Size() int { return scalarSize + 8 + stampedSize(m.codesSize, m.Codes) }

// Kind implements Msg.
func (m DigestReport) Kind() byte { return KindDigestReport }

// SubtreeRequest asks a peer for the completion content under Prefix during
// an anti-entropy walk. Full set means the requester knows nothing under
// Prefix (the restart-rejoin and bootstrap case) and the responder should
// ship the whole subtree frontier instead of another level of digests.
type SubtreeRequest struct {
	Prefix    code.Code
	Full      bool
	Incumbent float64
	ActAge    float64
}

// Size implements Msg.
func (m SubtreeRequest) Size() int { return scalarSize + 1 + m.Prefix.WireSize() }

// Kind implements Msg.
func (m SubtreeRequest) Kind() byte { return KindSubtreeRequest }

// SubtreeReply answers a SubtreeRequest. A leaf reply inlines the subtree's
// frontier codes relative to Prefix (nil = the responder knows nothing
// there; a single empty code = the whole subtree is complete). A branch
// reply describes the vertex at Prefix — its branching variable and
// per-child digests — so the requester can descend only into the children
// that differ.
type SubtreeReply struct {
	Prefix    code.Code
	Leaf      bool
	Rel       []code.Code // leaf replies: frontier relative to Prefix
	BranchVar uint32      // branch replies
	Kids      [2]ctree.ChildDigest
	Incumbent float64
	ActAge    float64
}

// Size implements Msg.
func (m SubtreeReply) Size() int {
	sz := scalarSize + 1
	if m.Leaf {
		sec := ctree.SubtreeWireSize(m.Prefix, m.Rel)
		return sz + code.UvarintLen(uint64(sec)) + sec
	}
	sz += m.Prefix.WireSize() + code.UvarintLen(uint64(m.BranchVar)) + 1
	for _, k := range m.Kids {
		if k.Present {
			sz += 8
		}
	}
	return sz
}

// Kind implements Msg.
func (m SubtreeReply) Kind() byte { return KindSubtreeReply }

// Hello announces a brand-new process to a member it has an address for —
// the §5.2 join step lifted onto the canonical wire so it crosses real
// transports. ID is the joiner's own identity (which need not match the
// envelope sender when a member forwards the hello onward), Addr its dialable
// address ("" on transports that route by ID alone). A member that learns a
// new peer from a Hello forwards it to its own view and answers Welcome, so
// one contact suffices to flood a join through the cluster.
type Hello struct {
	ID        NodeID
	Addr      string
	Incumbent float64
	ActAge    float64
}

// Size implements Msg.
func (m Hello) Size() int {
	return scalarSize + code.UvarintLen(uint64(m.ID)) + code.UvarintLen(uint64(len(m.Addr))) + len(m.Addr)
}

// Kind implements Msg.
func (m Hello) Kind() byte { return KindHello }

// Peer pairs a member's identity with its dialable address, for Welcome
// payloads.
type Peer struct {
	ID   NodeID
	Addr string
}

// Welcome answers a Hello with the responder's current view (itself
// included), each member with its last-known address. The joiner merges the
// peers into its own view and bootstraps its completion table from the
// responder via the Full-root subtree pull. Views gossiped this way may be
// mutually inconsistent while a join floods; that is safe for the same reason
// the paper's §5.2 protocol tolerates it — every view member is a valid
// steal/report target, and missing members only thin the fanout temporarily.
type Welcome struct {
	Peers     []Peer
	Incumbent float64
	ActAge    float64
}

// Ping is an explicit heartbeat, sent only when a link has been otherwise
// idle long enough that the receiver's failure detector would start doubting
// the sender. It carries nothing beyond the scalars every message already
// piggybacks — on a busy link the regular gossip traffic *is* the heartbeat,
// so pings cost nothing in failure-free, work-saturated runs.
type Ping struct {
	Incumbent float64
	ActAge    float64
}

// Size implements Msg.
func (m Ping) Size() int { return scalarSize }

// Kind implements Msg.
func (m Ping) Kind() byte { return KindPing }

// Size implements Msg.
func (m Welcome) Size() int {
	sz := scalarSize + code.UvarintLen(uint64(len(m.Peers)))
	for _, p := range m.Peers {
		sz += code.UvarintLen(uint64(p.ID)) + code.UvarintLen(uint64(len(p.Addr))) + len(p.Addr)
	}
	return sz
}

// Kind implements Msg.
func (m Welcome) Kind() byte { return KindWelcome }

// scalarSize is the fixed part of every message: one kind byte plus the two
// 8-byte piggybacked scalars.
const scalarSize = 17

// stampedSize returns the encoded size of a message's code batch. The messages
// whose codes are an outbox's frontier — Report, DigestReport — carry it as a
// stamp: the sending core holds the figure as the outbox's WireSize
// (FlushReport), so the transports' Size call on every send is a field read.
// A decoded or hand-built message has no stamp and walks its codes.
// A real size is never 0: the code count alone takes a byte.
func stampedSize(stamp int, cs []code.Code) int {
	if stamp > 0 {
		return stamp
	}
	return code.WireSizeAll(cs)
}
