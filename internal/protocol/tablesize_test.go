package protocol

import (
	"slices"
	"testing"

	"gossipbnb/internal/code"
)

// TestTablePushSizeStamp: every set of codes a core sends — a report, a
// digest report, a table push, which a starving core's work request carries —
// carries a trie, the outbox's or the table's snapshot, and is sized by the
// sums that trie keeps, so Size() is a field read on the sending side however
// many members the message goes to. Real cores are driven over the loopback
// net, with frontier reports and with diff gossip — core 0 works in short
// bursts, the rest starve, steal, report and push their tables on their
// probes between them — and every such message must be charged exactly what
// the codec writes; the same message rebuilt by Decode must carry the same
// trie and report the same size.
func TestTablePushSizeStamp(t *testing.T) {
	const n = 8
	var multi [KindCount]int // per kind: messages of more than one code
	for _, cfg := range []Config{{}, {DiffGossip: true}} {
		l := newLoopNet(n, 8, n, cfg)
		l.cores[0].Seed(l.tree.Root())
		for round := 0; round < 200 && !l.allDone(); round++ {
			for k := 0; k < 6 && !l.done[0]; k++ { // a short burst, not l.run: the others must find work left
				it, st := l.cores[0].Next()
				switch st {
				case Expand:
					l.clk.t += 0.001
					l.cores[0].OnExpanded(it, l.tree.Outcome(it), 0.001)
				case Terminated:
					l.done[0] = true
				}
			}
			l.starveRound()
		}
		if !l.allDone() {
			t.Fatal("not every core terminated")
		}
		for _, f := range l.log {
			var s codeSet
			switch m := f.m.(type) {
			case Report:
				s = m.set()
			case DigestReport:
				s = m.set()
			case TableMsg:
				s = m.set()
			case WorkRequest:
				if m.push != pushTable {
					checkSize(t, f.m)
					continue
				}
				s = codeSet{table: m.table}
			default:
				continue
			}
			if s.len() > 1 {
				multi[f.m.Kind()]++
			}
			checkSetMsg(t, f.m, s)
		}
	}
	for _, k := range []byte{KindRequest, KindReport, KindDigestReport} {
		if multi[k] == 0 {
			t.Errorf("no %s message of more than one code: the scenario no longer sends real frontiers", KindName(k))
		}
	}
}

// checkSetMsg requires a sent set message to carry a trie and to weigh what
// the codec writes, and the message Decode rebuilds from its encoding to
// carry a trie of the same frontier, listed as Codes, at the same size.
func checkSetMsg(t *testing.T, m Msg, s codeSet) {
	t.Helper()
	if s.table == nil {
		t.Fatalf("a sent %T carries no table", m)
	}
	buf, err := Encode(nil, m)
	if err != nil || m.Size() != len(buf) {
		t.Fatalf("%T of %d codes: Size() %d, encodes to %d bytes (%v)", m, s.len(), m.Size(), len(buf), err)
	}
	back, used, err := Decode(buf)
	if err != nil || used != len(buf) {
		t.Fatalf("Decode: %v, consumed %d of %d bytes", err, used, len(buf))
	}
	var bs codeSet
	switch b := back.(type) {
	case Report:
		bs = b.set()
	case DigestReport:
		bs = b.set()
	case TableMsg:
		bs = b.set()
	case WorkRequest:
		bs = codeSet{b.table, b.table.Codes()}
	}
	if bs.table == nil || back.Size() != len(buf) || !slices.EqualFunc(bs.codes, s.frontier(), code.Code.Equal) {
		t.Fatalf("decoded %T: table %v, Size() %d for %d bytes, codes %v, want %v",
			back, bs.table != nil, back.Size(), len(buf), bs.codes, s.frontier())
	}
}

// checkSize requires a sent message to weigh what the codec writes, and to
// decode to a message of the same size.
func checkSize(t *testing.T, m Msg) {
	t.Helper()
	buf, err := Encode(nil, m)
	if err != nil || m.Size() != len(buf) {
		t.Fatalf("%+v: Size() %d, encodes to %d bytes (%v)", m, m.Size(), len(buf), err)
	}
	if back, used, err := Decode(buf); err != nil || used != len(buf) || back.Size() != len(buf) {
		t.Fatalf("Decode(%+v): %v, consumed %d of %d bytes", m, err, used, len(buf))
	}
}
