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
	KindHeartbeat

	// KindCount bounds the dense kind space for accounting arrays.
	KindCount = int(KindHeartbeat) + 1
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
	case KindHeartbeat:
		return "heartbeat"
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
// (§5.3.2). It travels as the trie of that batch: Core.FlushReport ships the
// outbox's frozen snapshot (ctree.Table.Snapshot), with Codes nil, and the
// receiving core merges it trie to trie, exactly as a table push. A report
// whose only code is the root is the termination report of §5.4 (RootReport):
// broadcast by a process that detects termination, forwarded by the ones it
// tells, and a finished process's answer to a work request. Decode rebuilds
// the trie and also fills Codes with its frontier, unless that frontier holds
// more than maxListed decisions per byte of the body. A hand-built report
// carries Codes alone: it travels as the list they are (codeSet), and the
// receiver merges the table they build. Len and Frontier read any form.
type Report struct {
	Codes     []code.Code
	Incumbent float64
	ActAge    float64

	table *ctree.Table // the sender's snapshot or the decoded trie, or nil
}

// RootReport returns the termination report: the complete table, whose one
// code is the root. Every root report shares one frozen trie and one Codes
// slice, so building and sizing the termination traffic allocates nothing;
// neither may be written.
func RootReport(incumbent, actAge float64) Report {
	return Report{Codes: rootCodes, Incumbent: incumbent, ActAge: actAge, table: ctree.Done()}
}

// rootCodes is the frontier of ctree.Done.
var rootCodes = []code.Code{code.Root()}

// Size implements Msg.
func (m Report) Size() int { return scalarSize + m.set().size() }

// Kind implements Msg.
func (m Report) Kind() byte { return KindReport }

// Len returns the number of codes the report carries.
func (m Report) Len() int { return m.set().len() }

// Frontier returns the codes the report carries: Codes, or the trie's
// frontier materialised afresh.
func (m Report) Frontier() []code.Code { return m.set().frontier() }

// Snapshot returns the trie the report carries — the sender's snapshot, or
// the decoded trie — or nil for a hand-built report. It must not be mutated.
// A snapshot is taken once per outbox flush, so its identity names the flush
// for a driver that drops the flush's repeats to one peer.
func (m Report) Snapshot() *ctree.Table { return m.table }

func (m Report) set() codeSet { return codeSet{m.table, m.Codes} }

// TableMsg is the occasional full-table push "to inform new members of the
// current state of the execution and to increase the degree of consistency".
// Its payload is the sender's contracted table, and it travels as one, with
// a Report's body: Core.SendTable ships the table's frozen snapshot
// (ctree.Table.Snapshot), with Codes nil, and the receiving core merges it
// trie to trie. Decode and hand-built pushes are as for Report.
type TableMsg struct {
	Codes     []code.Code
	Incumbent float64
	ActAge    float64

	table *ctree.Table // the sender's snapshot or the decoded trie, or nil
}

// Size implements Msg: the encoded table's size, which a table keeps as a
// running sum, so sizing a pushed or decoded message walks nothing.
func (m TableMsg) Size() int { return scalarSize + m.set().size() }

// Len returns the number of frontier codes the push carries.
func (m TableMsg) Len() int { return m.set().len() }

// Frontier returns the codes the push carries: Codes, or the table's
// frontier materialised afresh — what a Sender that inspects pushes reads.
func (m TableMsg) Frontier() []code.Code { return m.set().frontier() }

// Kind implements Msg.
func (m TableMsg) Kind() byte { return KindTable }

func (m TableMsg) set() codeSet { return codeSet{m.table, m.Codes} }

// codeSet is the body Report, TableMsg and DigestReport share: a set of codes
// that travels as the trie it carries. Hand-built codes, which carry none,
// travel as the list they are, behind listMark.
type codeSet struct {
	table *ctree.Table // the sender's snapshot or the decoded trie; nil if hand-built
	codes []code.Code  // a hand-built body, or the decoded trie's frontier
}

func (s codeSet) size() int {
	if s.table != nil {
		return s.table.EncodedSize()
	}
	return len(listMark) + code.ListSize(s.codes)
}

func (s codeSet) appendTo(dst []byte) []byte {
	if s.table != nil {
		return s.table.Encode(dst)
	}
	return code.AppendList(append(dst, listMark...), s.codes)
}

// trie returns the table to merge: the trie the set carries, or the table
// hand-built codes build.
func (s codeSet) trie() *ctree.Table {
	if s.table != nil {
		return s.table
	}
	t := ctree.New()
	t.InsertAll(s.codes)
	return t
}

func (s codeSet) len() int {
	if s.table != nil {
		return s.table.Len()
	}
	return len(s.codes)
}

func (s codeSet) frontier() []code.Code {
	if s.table != nil && s.codes == nil {
		return s.table.Codes()
	}
	return s.codes
}

// listMark introduces a set body spelled as a list: the two-byte, padded
// spelling of a zero vertex count, which no trie uses (ctree.DecodeOne holds
// varints to their shortest form). Nothing the protocol sends uses it: it
// carries the hand-built reports of bench/, which sizes a report by adding
// codes to it until it weighs enough.
const listMark = "\x80\x00"

// maxListed bounds the codes Decode lists beside a decoded trie: a frontier
// of more than maxListed decisions per byte of the body is left in the trie,
// where Frontier still reads it. A trie holds a deep descent's frontier in a
// few bytes a level, and its listed codes in a decision per level per code.
const maxListed = 64

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
// from the code plus the initial data every process holds. The codes are pool
// entries, not a contracted set — two granted siblings are two problems, not
// their parent — so a grant travels as the plain list of them
// (code.AppendList).
type WorkGrant struct {
	Codes     []code.Code
	Incumbent float64
	ActAge    float64
}

// Size implements Msg.
func (m WorkGrant) Size() int { return scalarSize + code.ListSize(m.Codes) }

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
// Report carries, with its body, plus the content digest of the sender's whole
// completion table (ctree.Table.Digest). The delta keeps steady-state
// convergence as cheap as legacy reports; the digest lets a receiver detect
// divergence beyond the delta — lost reports, a restart, a partition heal —
// and pull exactly the missing subtrees instead of waiting for a full-table
// push. A DigestReport whose trie is the shared empty one (ctree.Empty) is
// the diff-mode table push.
type DigestReport struct {
	Digest    uint64
	Codes     []code.Code
	Incumbent float64
	ActAge    float64

	table *ctree.Table // the sender's snapshot or the decoded trie, or nil
}

// Size implements Msg.
func (m DigestReport) Size() int { return scalarSize + 8 + m.set().size() }

// Len returns the number of codes the report carries.
func (m DigestReport) Len() int { return m.set().len() }

// Frontier returns the codes the report carries: Codes, or the trie's
// frontier materialised afresh.
func (m DigestReport) Frontier() []code.Code { return m.set().frontier() }

// Snapshot is Report.Snapshot.
func (m DigestReport) Snapshot() *ctree.Table { return m.table }

func (m DigestReport) set() codeSet { return codeSet{m.table, m.Codes} }

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

// SubtreeReply answers a SubtreeRequest. A leaf reply carries the subtree
// below Prefix as a table of its own, relative to Prefix (ctree.Table.Subtree:
// empty = the responder knows nothing there, complete = the whole subtree
// is), and travels as its trie; the receiver merges it below Prefix. A branch
// reply describes the vertex at Prefix — its branching variable and
// per-child digests — so the requester can descend only into the children
// that differ.
type SubtreeReply struct {
	Prefix    code.Code
	Leaf      bool
	BranchVar uint32 // branch replies
	Kids      [2]ctree.ChildDigest
	Incumbent float64
	ActAge    float64

	table *ctree.Table // leaf replies: the subtree; nil is the empty one
}

// Len returns the number of codes a leaf reply carries.
func (m SubtreeReply) Len() int {
	if m.table == nil {
		return 0
	}
	return m.table.Len()
}

// trie returns the subtree a leaf reply carries.
func (m SubtreeReply) trie() *ctree.Table {
	if m.table == nil {
		return ctree.Empty()
	}
	return m.table
}

// Size implements Msg.
func (m SubtreeReply) Size() int {
	sz := scalarSize + 1 + m.Prefix.WireSize()
	if m.Leaf {
		return sz + m.trie().EncodedSize()
	}
	sz += code.UvarintLen(uint64(m.BranchVar)) + 1
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

// Ping carries only the scalars every message piggybacks. No runtime sends
// it since the membership heartbeat (Heartbeat) replaced the live detector's
// idle-link pings: a live node hands its boot core a heartbeat's scalars as
// a Ping, which the core still reads.
type Ping struct {
	Incumbent float64
	ActAge    float64
}

// Size implements Msg.
func (m Ping) Size() int { return scalarSize }

// Kind implements Msg.
func (m Ping) Kind() byte { return KindPing }

// Heartbeat is the §5.2 gossip heartbeat (internal/member): the sender's
// table of every member it holds in its view, itself included, each with the
// latest heartbeat counter it knows. A member sends it to a constant fanout
// of random view members once per heartbeat period, so its load per member
// does not grow with the group; a receiver refreshes a member only on strict
// counter progress.
type Heartbeat struct {
	Beats     []Beat
	Incumbent float64
	ActAge    float64
}

// Beat is one entry of a Heartbeat table.
type Beat struct {
	ID    NodeID
	Count uint64
}

// Size implements Msg.
func (m Heartbeat) Size() int {
	sz := scalarSize + code.UvarintLen(uint64(len(m.Beats)))
	for _, b := range m.Beats {
		sz += code.UvarintLen(uint64(b.ID)) + code.UvarintLen(b.Count)
	}
	return sz
}

// Kind implements Msg.
func (m Heartbeat) Kind() byte { return KindHeartbeat }

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
