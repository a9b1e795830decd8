package protocol

import (
	"slices"
	"testing"

	"gossipbnb/internal/code"
)

// stampOf returns the code batch of a message that may carry a size stamp,
// and the stamp.
func stampOf(m Msg) (cs []code.Code, stamp int, ok bool) {
	switch t := m.(type) {
	case Report:
		return t.Codes, t.codesSize, true
	case DigestReport:
		return t.Codes, t.codesSize, true
	}
	return nil, 0, false
}

// TestTablePushSizeStamp: Core.FlushReport stamps what it sends with the size
// the outbox already holds, and a table push is sized by the sums its table
// keeps, so Size() is a field read on the sending side however many members
// the message goes to. Real cores are driven over the loopback net, with
// frontier reports and with diff gossip — core 0 works in short bursts, the
// rest starve, steal, report and push their tables between them — and every
// report any core sends must be charged exactly what the codec writes and
// what the walk over its codes adds up to; the same message rebuilt by Decode
// carries no stamp, takes the walk, and must report the same size. Every
// table push, sent and decoded, must carry its trie and weigh exactly what
// the codec writes.
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
			if tm, ok := f.m.(TableMsg); ok {
				if tm.Len() > 1 {
					multi[KindTable]++
				}
				checkTablePush(t, tm)
				continue
			}
			cs, stamp, ok := stampOf(f.m)
			if !ok || len(cs) == 0 || isRootReport(f.m) {
				continue // a bare digest push and the termination report are built by hand
			}
			if len(cs) > 1 {
				multi[f.m.Kind()]++
			}
			if stamp == 0 {
				t.Fatalf("%T %d→%d of %d codes carries no size stamp", f.m, f.from, f.to, len(cs))
			}
			buf, err := Encode(nil, f.m)
			if err != nil {
				t.Fatal(err)
			}
			if walked := code.WireSizeAll(cs); stamp != walked || f.m.Size() != len(buf) {
				t.Fatalf("%T of %d codes: stamp %d, codes walk to %d; Size() %d, encodes to %d bytes",
					f.m, len(cs), stamp, walked, f.m.Size(), len(buf))
			}
			back, used, err := Decode(buf)
			if err != nil || used != len(buf) {
				t.Fatalf("Decode: %v, consumed %d of %d bytes", err, used, len(buf))
			}
			if _, stamp, _ := stampOf(back); stamp != 0 {
				t.Fatalf("a decoded %T carries a size stamp (%d)", back, stamp)
			}
			if back.Size() != f.m.Size() {
				t.Fatalf("decoded %T reports %d bytes, the stamped original %d", back, back.Size(), f.m.Size())
			}
		}
	}
	for _, k := range []byte{KindTable, KindReport, KindDigestReport} {
		if multi[k] == 0 {
			t.Errorf("no %s message of more than one code: the scenario no longer sends real frontiers", KindName(k))
		}
	}
}

// checkTablePush requires a pushed table, and the message Decode rebuilds
// from its encoding, to carry the trie and to weigh what the codec writes,
// and the decoded one to hold the pushed frontier.
func checkTablePush(t *testing.T, m TableMsg) {
	t.Helper()
	if m.table == nil {
		t.Fatal("a pushed TableMsg carries no table")
	}
	buf, err := Encode(nil, m)
	if err != nil || m.Size() != len(buf) {
		t.Fatalf("TableMsg of %d codes: Size() %d, encodes to %d bytes (%v)", m.Len(), m.Size(), len(buf), err)
	}
	back, used, err := Decode(buf)
	if err != nil || used != len(buf) {
		t.Fatalf("Decode: %v, consumed %d of %d bytes", err, used, len(buf))
	}
	bt := back.(TableMsg)
	if bt.table == nil || bt.Size() != len(buf) || !slices.EqualFunc(bt.Codes, m.Frontier(), code.Code.Equal) {
		t.Fatalf("decoded TableMsg: table %v, Size() %d for %d bytes, codes %v, want %v",
			bt.table != nil, bt.Size(), len(buf), bt.Codes, m.Frontier())
	}
}
