package protocol

import "testing"

// TestTablePushSizeStamp: Core.SendTable stamps a TableMsg with the size its
// table already holds, so Size() is a field read on the sending side. Real
// cores are driven over the loopback net — core 0 works in short bursts, the
// rest starve, steal, report and push their tables between them — and every
// table push any core makes must be charged exactly what the codec writes and
// what the walk over its codes adds up to; the same message rebuilt by Decode
// carries no stamp, takes the walk, and must report the same size.
func TestTablePushSizeStamp(t *testing.T) {
	const n = 8
	l := newLoopNet(n, 8, Config{})
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
	pushes, multi := 0, 0
	for _, f := range l.log {
		m, ok := f.m.(TableMsg)
		if !ok {
			continue
		}
		pushes++
		if len(m.Codes) > 1 {
			multi++
		}
		if m.codesSize == 0 {
			t.Fatalf("table push %d→%d of %d codes carries no size stamp", f.from, f.to, len(m.Codes))
		}
		buf, err := Encode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		walked := scalarSize + codesWireSize(m.Codes)
		if m.Size() != len(buf) || m.Size() != walked {
			t.Fatalf("table push of %d codes: Size() %d, encodes to %d bytes, codes walk to %d",
				len(m.Codes), m.Size(), len(buf), walked)
		}
		back, used, err := Decode(buf)
		if err != nil || used != len(buf) {
			t.Fatalf("Decode: %v, consumed %d of %d bytes", err, used, len(buf))
		}
		d := back.(TableMsg)
		if d.codesSize != 0 {
			t.Fatalf("a decoded TableMsg carries a size stamp (%d)", d.codesSize)
		}
		if d.Size() != m.Size() {
			t.Fatalf("decoded TableMsg reports %d bytes, the stamped original %d", d.Size(), m.Size())
		}
	}
	if pushes < n || multi == 0 {
		t.Fatalf("%d table pushes, %d with more than one code: the scenario no longer pushes real tables", pushes, multi)
	}
}
