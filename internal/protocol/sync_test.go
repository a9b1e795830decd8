package protocol

// Two-core tests for the anti-entropy diff-gossip exchange: digest walks must
// converge divergent tables, descend only into differing subtrees, respect
// the rate limit, tolerate duplicated and replayed traffic, and fall back to
// the legacy root report for termination.

import (
	"testing"

	"gossipbnb/internal/code"
)

// syncPair wires two cores (ids 0 and 1) back to back through fakeSenders.
type syncPair struct {
	clk    fakeClock
	tree   fakeTree
	a, b   *Core
	sa, sb *fakeSender
}

func newSyncPair(t *testing.T, depth int, cfg Config) *syncPair {
	t.Helper()
	p := &syncPair{tree: fakeTree{depth: depth}}
	p.sa, p.sb = &fakeSender{}, &fakeSender{}
	mk := func(id NodeID, snd *fakeSender, peer NodeID) *Core {
		return New(id, cfg, Deps{
			Clock:    &p.clk,
			Sender:   snd,
			Expander: p.tree,
			Peers:    func() []NodeID { return []NodeID{peer} },
			Rand:     func(n int) int { return 0 },
		})
	}
	p.a = mk(0, p.sa, 1)
	p.b = mk(1, p.sb, 0)
	return p
}

// pump relays queued messages between the two cores until both are quiescent,
// returning everything that crossed the wire (messages to third parties are
// dropped, like an asynchronous network would).
func (p *syncPair) pump(t *testing.T) []Msg {
	t.Helper()
	var relayed []Msg
	for rounds := 0; ; rounds++ {
		if rounds > 10000 {
			t.Fatal("sync did not quiesce")
		}
		progress := false
		for _, s := range p.sa.take() {
			relayed = append(relayed, s.m)
			if s.to == 1 {
				p.b.HandleMessage(0, s.m)
			}
			progress = true
		}
		for _, s := range p.sb.take() {
			relayed = append(relayed, s.m)
			if s.to == 0 {
				p.a.HandleMessage(1, s.m)
			}
			progress = true
		}
		if !progress {
			return relayed
		}
	}
}

// fakeLeaves returns every leaf code of the depth-d fakeTree.
func fakeLeaves(depth int) []code.Code {
	cs := []code.Code{code.Root()}
	for d := 0; d < depth; d++ {
		next := make([]code.Code, 0, 2*len(cs))
		for _, c := range cs {
			for b := uint8(0); b < 2; b++ {
				next = append(next, c.Child(uint32(d+1), b))
			}
		}
		cs = next
	}
	return cs
}

// tablesEqual compares the two cores' table frontiers exactly.
func (p *syncPair) tablesEqual() bool {
	x, y := p.a.Table().Codes(), p.b.Table().Codes()
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if !x[i].Equal(y[i]) {
			return false
		}
	}
	return true
}

// TestDiffGossipSyncBootstrap: a bare digest push to an empty core (the
// restart-rejoin case) triggers a Full root request answered by the whole
// frontier in one uncapped leaf reply.
func TestDiffGossipSyncBootstrap(t *testing.T) {
	p := newSyncPair(t, 6, Config{DiffGossip: true, SyncInterval: 1})
	leaves := fakeLeaves(6)
	var half []code.Code
	for i := 0; i < len(leaves); i += 2 {
		half = append(half, leaves[i]) // no sibling pairs: nothing contracts
	}
	p.a.HandleMessage(2, Report{Codes: half})
	if p.a.Table().Len() != len(half) {
		t.Fatalf("seeded %d codes, table holds %d", len(half), p.a.Table().Len())
	}

	p.a.SendTable(1)
	relayed := p.pump(t)

	if !p.tablesEqual() {
		t.Fatal("tables differ after bootstrap sync")
	}
	if p.a.Table().Digest() != p.b.Table().Digest() {
		t.Fatal("digests differ after bootstrap sync")
	}
	reqs, replies := 0, 0
	for _, m := range relayed {
		switch sm := m.(type) {
		case SubtreeRequest:
			reqs++
			if !sm.Full || !sm.Prefix.IsRoot() {
				t.Fatalf("bootstrap request = %+v, want Full root request", sm)
			}
		case SubtreeReply:
			replies++
			if !sm.Leaf || len(sm.Rel) != len(half) {
				t.Fatalf("bootstrap reply leaf=%v with %d codes, want whole %d-code frontier",
					sm.Leaf, len(sm.Rel), len(half))
			}
		}
	}
	if reqs != 1 || replies != 1 {
		t.Fatalf("bootstrap took %d requests / %d replies, want 1/1", reqs, replies)
	}
}

// TestDiffGossipSyncWalkDescends: a receiver that already shares half the
// sender's table must descend past the root branch digests and pull only the
// missing half — never requesting the subtree it already agrees on.
func TestDiffGossipSyncWalkDescends(t *testing.T) {
	p := newSyncPair(t, 8, Config{DiffGossip: true, SyncInterval: 1})
	leaves := fakeLeaves(8)
	var sparse []code.Code
	for i := 0; i < len(leaves); i += 2 {
		sparse = append(sparse, leaves[i])
	}
	p.a.HandleMessage(2, Report{Codes: sparse})
	// b already has the var-1=0 half: the walk must skip it.
	var shared []code.Code
	for _, c := range sparse {
		if c[0].Branch == 0 {
			shared = append(shared, c)
		}
	}
	p.b.HandleMessage(2, Report{Codes: shared})

	// Step past the quiet gate: b's table just changed, and a core whose
	// delta stream is still warm treats divergence as convergence lag.
	p.clk.t = 2
	p.a.SendTable(1)
	relayed := p.pump(t)

	if !p.tablesEqual() {
		t.Fatal("tables differ after walk")
	}
	syncBytes := 0
	for _, m := range relayed {
		switch sm := m.(type) {
		case SubtreeRequest:
			syncBytes += sm.Size()
			if len(sm.Prefix) > 0 && sm.Prefix[0].Branch == 0 {
				t.Fatalf("walk requested the already-shared subtree %v", sm.Prefix)
			}
		case SubtreeReply:
			syncBytes += sm.Size()
		}
	}
	// The pull must be delta-sized: below re-shipping the full frontier as a
	// code batch, which is what a report of it weighs (656 bytes; the walk
	// moves 416). A table push, which travels as the trie, weighs 370 here:
	// on a table this small with half of it missing, the walk's digests cost
	// more than the whole trie.
	full := Report{Codes: p.a.Table().Codes()}.Size()
	if syncBytes >= full {
		t.Fatalf("walk moved %d sync bytes >= %d full-frontier bytes", syncBytes, full)
	}
}

// TestDiffGossipSyncRateLimit: at most one walk per SyncInterval, no matter
// how many divergent digests arrive.
func TestDiffGossipSyncRateLimit(t *testing.T) {
	p := newSyncPair(t, 5, Config{DiffGossip: true, SyncInterval: 5})
	leaves := fakeLeaves(5)
	p.a.HandleMessage(2, Report{Codes: leaves[:7]})
	d := p.a.Table().Digest()

	p.b.HandleMessage(0, DigestReport{Digest: d})
	if n := len(p.sb.take()); n != 1 {
		t.Fatalf("first divergent digest sent %d messages, want 1 subtree request", n)
	}
	// Still inside the interval: further divergent digests are ignored.
	p.b.HandleMessage(0, DigestReport{Digest: d})
	p.b.HandleMessage(0, DigestReport{Digest: d ^ 1})
	if n := len(p.sb.take()); n != 0 {
		t.Fatalf("rate-limited core sent %d messages, want 0", n)
	}
	// After the interval the next divergent digest walks again.
	p.clk.t = 6
	p.b.HandleMessage(0, DigestReport{Digest: d})
	if n := len(p.sb.take()); n != 1 {
		t.Fatalf("post-interval digest sent %d messages, want 1", n)
	}
	// An equal digest never walks, whatever the clock says.
	p.clk.t = 100
	p.b.HandleMessage(0, DigestReport{Digest: p.b.Table().Digest()})
	if n := len(p.sb.take()); n != 0 {
		t.Fatalf("equal digest sent %d messages, want 0", n)
	}
}

// TestDiffGossipSyncIdempotent: duplicated requests and replayed stale
// replies must not change a converged table — the exchange is a pull of
// monotone completion facts, so at-least-once delivery is harmless.
func TestDiffGossipSyncIdempotent(t *testing.T) {
	p := newSyncPair(t, 6, Config{DiffGossip: true, SyncInterval: 1})
	leaves := fakeLeaves(6)
	var half []code.Code
	for i := 0; i < len(leaves); i += 2 {
		half = append(half, leaves[i])
	}
	p.a.HandleMessage(2, Report{Codes: half})
	p.a.SendTable(1)
	relayed := p.pump(t)
	if !p.tablesEqual() {
		t.Fatal("tables differ after sync")
	}
	want := p.b.Table().Digest()

	// Replay every sync message at both ends, twice.
	for i := 0; i < 2; i++ {
		for _, m := range relayed {
			p.b.HandleMessage(0, m)
			p.a.HandleMessage(1, m)
		}
		p.pump(t)
	}
	if got := p.b.Table().Digest(); got != want {
		t.Fatalf("replayed sync traffic changed the table: %#x != %#x", got, want)
	}
	if !p.tablesEqual() {
		t.Fatal("tables diverged under replay")
	}
}

// TestDiffGossipTerminationFallback: a core solving in diff mode still
// terminates stragglers with the legacy root report — the broadcast fallback
// no digest walk is needed for.
func TestDiffGossipTerminationFallback(t *testing.T) {
	p := newSyncPair(t, 4, Config{DiffGossip: true, SyncInterval: 1})
	root := p.tree.Root()
	p.a.Seed(root)
	for steps := 0; steps < 1<<12; steps++ {
		it, st := p.a.Next()
		if st == Terminated {
			break
		}
		if st != Expand {
			t.Fatalf("unexpected status %v", st)
		}
		p.clk.t += 0.01
		p.a.OnExpanded(it, p.tree.Outcome(it), 0.01)
	}
	if !p.a.Terminated() {
		t.Fatal("solver did not terminate")
	}
	// The termination broadcast must be a legacy root Report even in diff
	// mode: it is self-certifying and needs no walk.
	sawRoot := false
	for _, s := range p.sa.take() {
		if r, ok := s.m.(Report); ok && len(r.Codes) == 1 && r.Codes[0].IsRoot() {
			sawRoot = true
			if s.to == 1 {
				p.b.HandleMessage(0, s.m)
			}
		} else if s.to == 1 {
			p.b.HandleMessage(0, s.m)
		}
	}
	if !sawRoot {
		t.Fatal("no legacy root report in the termination broadcast")
	}
	p.pump(t)
	if _, st := p.b.Next(); st != Terminated {
		t.Fatalf("straggler status = %v, want Terminated", st)
	}
}
