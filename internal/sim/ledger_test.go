package sim

import (
	"math"
	"testing"
	"time"

	"gossipbnb/internal/nemesis"
)

// ledgerFaults is one fault of every nemesis kind, each sure to bite the
// traffic ledgerTraffic sends in its first virtual second, with the count it
// moves (nil for a slow link, which only delays).
var ledgerFaults = []struct {
	f    nemesis.Fault
	bite func(nemesis.NetStats) int64
}{
	{nemesis.Fault{Kind: nemesis.Partition, End: time.Second, A: []int{0, 1}}, cut},
	{nemesis.Fault{Kind: nemesis.OneWay, End: time.Second, A: []int{0}, B: []int{1, 2}}, cut},
	{nemesis.Fault{Kind: nemesis.Flap, A: []int{0}, B: []int{1}, Period: 20 * time.Millisecond}, cut},
	{nemesis.Fault{Kind: nemesis.Stall, End: time.Second, A: []int{2}}, cut},
	{nemesis.Fault{Kind: nemesis.Slow, A: []int{0}, B: []int{1}, Delay: 50 * time.Millisecond}, nil},
	{nemesis.Fault{Kind: nemesis.Corrupt, Prob: 0.3}, func(s nemesis.NetStats) int64 { return s.Corrupt }},
	{nemesis.Fault{Kind: nemesis.Loss, Prob: 0.3}, func(s nemesis.NetStats) int64 { return s.Lost }},
	{nemesis.Fault{Kind: nemesis.Dup, Prob: 0.5}, func(s nemesis.NetStats) int64 { return s.Duplicated }},
	{nemesis.Fault{Kind: nemesis.Reorder, Prob: 0.5}, func(s nemesis.NetStats) int64 { return s.Reordered }},
	{nemesis.Fault{Kind: nemesis.Replay, Prob: 0.5}, func(s nemesis.NetStats) int64 { return s.Replayed }},
}

func cut(s nemesis.NetStats) int64 { return s.Cut }

// ledgerTraffic sends, over the first virtual second, every directed pair
// among ids [0, n) a message each 10 ms, through net(from) on kernel
// kern(from). Node n-1 has no handler and node n-2 is crashed, so copies go
// Unrouted and ToDead besides whatever the fault does.
func ledgerTraffic(n int, kern func(NodeID) *Kernel, net func(NodeID) *Network) {
	for step := 0; step < 100; step++ {
		at := float64(step) * 0.01
		for from := 0; from < n-1; from++ {
			from := NodeID(from)
			kern(from).At(at, func() {
				for to := NodeID(0); int(to) < n; to++ {
					if to != from {
						net(from).Send(from, to, testMsg{sz: 16})
					}
				}
			})
		}
	}
}

// checkLedger asserts the two ledger identities TestLinkPolicy asserts for
// the live link, with Delivered cross-checked against the handlers' count,
// and that the fault moved its count.
func checkLedger(t *testing.T, st nemesis.NetStats, received int64, bite func(nemesis.NetStats) int64) {
	t.Helper()
	if bite != nil && bite(st) == 0 {
		t.Errorf("the fault moved no count: %+v", st)
	}
	if causes := st.Lost + st.Cut + st.Corrupt + st.ToDead + st.Unrouted; st.Dropped != causes {
		t.Errorf("Dropped = %d but its causes sum to %d: %+v", st.Dropped, causes, st)
	}
	if in, out := st.Sent+st.Duplicated+st.Replayed, st.Delivered+st.Dropped; in != out {
		t.Errorf("sent+injected = %d but delivered+dropped = %d: %+v", in, out, st)
	}
	if st.Delivered != received {
		t.Errorf("Delivered = %d, handlers received %d", st.Delivered, received)
	}
	if st.ToDead == 0 || st.Unrouted == 0 {
		t.Errorf("ToDead = %d, Unrouted = %d: want both causes exercised", st.ToDead, st.Unrouted)
	}
}

// TestNemesisLedgerIdentity runs traffic to quiescence under each nemesis
// fault kind, and under none, on a standalone network and on a 2-shard mesh
// whose nodes also broadcast a ring range, and checks that every copy sent
// or injected is counted exactly once: delivered, or dropped under one cause.
func TestNemesisLedgerIdentity(t *testing.T) {
	const n = 6
	for i := -1; i < len(ledgerFaults); i++ {
		var (
			sched *nemesis.Schedule
			bite  func(nemesis.NetStats) int64
			name  = "none"
		)
		if i >= 0 {
			sched, bite, name = nemesis.New(ledgerFaults[i].f), ledgerFaults[i].bite, ledgerFaults[i].f.Kind.String()
		}
		t.Run(name+"/network", func(t *testing.T) {
			k := New(int64(i) + 2)
			nw := NewNetwork(k, PaperLatency())
			nw.SetNemesis(sched)
			var received int64
			for id := NodeID(0); id < n-1; id++ {
				nw.Register(id, func(NodeID, Message) { received++ })
			}
			nw.Crash(n - 2)
			ledgerTraffic(n, func(NodeID) *Kernel { return k }, func(NodeID) *Network { return nw })
			k.Run(math.Inf(1))
			checkLedger(t, nw.Stats(), received, bite)
		})
		t.Run(name+"/mesh", func(t *testing.T) {
			lat := PaperLatency()
			m := NewMesh(int64(i)+2, 2, lat, lat(0))
			m.PlaceBlocks(n)
			received := make([]int64, n) // per node: handlers run on their owner shard
			for id := NodeID(0); id < n-1; id++ {
				m.NetOf(id).Register(id, func(NodeID, Message) { received[id]++ })
				m.NetOf(id).SetNemesis(sched)
			}
			m.NetOf(n - 1).SetNemesis(sched)
			m.NetOf(n - 2).Crash(n - 2)
			kern := func(id NodeID) *Kernel { return m.Kernel(m.ShardOf(id)) }
			ledgerTraffic(n, kern, m.NetOf)
			for from := NodeID(0); from < n-2; from++ {
				kern(from).At(0.5, func() { m.NetOf(from).BroadcastRange(from, int(from)+1, n-1, testMsg{sz: 8}) })
			}
			m.Run(math.Inf(1))
			var sum int64
			for _, r := range received {
				sum += r
			}
			checkLedger(t, m.Stats(), sum, bite)
		})
	}
}
