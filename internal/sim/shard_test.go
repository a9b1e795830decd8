package sim

import (
	"math"
	"testing"
)

type testMsg struct{ sz int }

func (m testMsg) Size() int { return m.sz }

// arrival is one recorded delivery, stamped with the receiving kernel's
// clock. Each node records into its own slice — handlers run only on the
// node's owner shard, so the recordings are race-free under -race.
type arrival struct {
	t    float64
	from NodeID
	msg  Message
}

func meshRecorders(m *Mesh, n int) [][]arrival {
	got := make([][]arrival, n)
	for id := 0; id < n; id++ {
		id := id
		k := m.Kernel(m.ShardOf(NodeID(id)))
		m.NetOf(NodeID(id)).Register(NodeID(id), func(from NodeID, msg Message) {
			got[id] = append(got[id], arrival{t: k.Now(), from: from, msg: msg})
		})
	}
	return got
}

// TestShardMeshCrossDelivery pins the core contract: a cross-shard message
// arrives at exactly send-time + latency(size), same as a local one.
func TestShardMeshCrossDelivery(t *testing.T) {
	lat := PaperLatency()
	m := NewMesh(1, 2, lat, lat(0))
	m.PlaceBlocks(4) // shard 0: {0,1}, shard 1: {2,3}
	got := meshRecorders(m, 4)

	net0 := m.Net(0)
	m.Kernel(0).At(0, func() {
		net0.Send(0, 1, testMsg{sz: 10}) // local
		net0.Send(0, 2, testMsg{sz: 20}) // cross-shard
	})
	m.Run(1)

	if len(got[1]) != 1 || len(got[2]) != 1 {
		t.Fatalf("deliveries: node1=%d node2=%d, want 1 each", len(got[1]), len(got[2]))
	}
	if want := lat(10); got[1][0].t != want {
		t.Errorf("local arrival at %g, want %g", got[1][0].t, want)
	}
	if want := lat(20); got[2][0].t != want {
		t.Errorf("cross-shard arrival at %g, want %g — sharding must not distort virtual time", got[2][0].t, want)
	}
}

// TestShardMeshPingPong bounces a message between two shards for many
// rounds: every hop must land at an exact multiple of the latency, across
// many barrier windows.
func TestShardMeshPingPong(t *testing.T) {
	lat := LinearLatency(2e-3, 0)
	m := NewMesh(7, 2, lat, lat(0))
	m.PlaceBlocks(2) // node 0 on shard 0, node 1 on shard 1
	const rounds = 50
	hops := 0
	var times []float64 // appended alternately, but strictly causally ordered
	for id := 0; id < 2; id++ {
		id := id
		k := m.Kernel(m.ShardOf(NodeID(id)))
		nw := m.NetOf(NodeID(id))
		m.NetOf(NodeID(id)).Register(NodeID(id), func(from NodeID, msg Message) {
			hops++
			times = append(times, k.Now())
			if hops < rounds {
				nw.Send(NodeID(id), from, msg)
			}
		})
	}
	m.Net(0).Send(0, 1, testMsg{})
	end := m.Run(10)
	if hops != rounds {
		t.Fatalf("hops = %d, want %d", hops, rounds)
	}
	for i, ti := range times {
		if want := float64(i+1) * lat(0); math.Abs(ti-want) > 1e-12 {
			t.Fatalf("hop %d at %g, want %g", i, ti, want)
		}
	}
	if want := float64(rounds) * lat(0); math.Abs(end-want) > 1e-12 {
		t.Errorf("end time %g, want %g", end, want)
	}
}

// TestShardMeshBroadcastRange checks the group fast path: everyone in the
// ring range gets exactly one copy at the same virtual instant; the sender
// and crashed nodes get none; stats merge correctly across shards.
func TestShardMeshBroadcastRange(t *testing.T) {
	lat := PaperLatency()
	const n, S = 10, 3
	m := NewMesh(3, S, lat, lat(0))
	m.PlaceBlocks(n)
	got := meshRecorders(m, n)

	const sender = 4
	// Crash state lives on the crashed node's OWNER shard — delivery-time
	// checks run there (node 7 is on shard 2 with n=10, S=3).
	m.NetOf(7).Crash(7)
	net := m.NetOf(sender)
	m.Kernel(m.ShardOf(sender)).At(0, func() {
		net.BroadcastRange(sender, sender+1, n-1, testMsg{sz: 8})
	})
	m.Run(1)

	want := lat(8)
	for id := 0; id < n; id++ {
		switch id {
		case sender, 7:
			if len(got[id]) != 0 {
				t.Errorf("node %d got %d messages, want 0", id, len(got[id]))
			}
		default:
			if len(got[id]) != 1 {
				t.Errorf("node %d got %d messages, want 1", id, len(got[id]))
				continue
			}
			if got[id][0].t != want || got[id][0].from != sender {
				t.Errorf("node %d: arrival (t=%g from=%d), want (t=%g from=%d)",
					id, got[id][0].t, got[id][0].from, want, sender)
			}
		}
	}
	st := m.Stats()
	if st.Sent != n-1 || st.Bytes != 8*(n-1) || st.Delivered != n-2 || st.ToDead != 1 || st.Dropped != 1 {
		t.Errorf("stats = %+v, want Sent=%d Bytes=%d Delivered=%d ToDead=Dropped=1", st, n-1, 8*(n-1), n-2)
	}
}

// TestShardMeshMatchesSingleShard runs one deterministic all-to-all
// scenario at several shard counts: every node's arrival log (time, from,
// size) must be identical — delivery content and timing are invariant in
// the shard count; only tie-order between distinct receivers may differ,
// which per-node logs do not see.
func TestShardMeshMatchesSingleShard(t *testing.T) {
	lat := PaperLatency()
	const n = 12
	runAt := func(S int) [][]arrival {
		m := NewMesh(5, S, lat, lat(0))
		m.PlaceBlocks(n)
		got := make([][]arrival, n)
		for id := 0; id < n; id++ {
			id := id
			k := m.Kernel(m.ShardOf(NodeID(id)))
			nw := m.NetOf(NodeID(id))
			replied := false
			m.NetOf(NodeID(id)).Register(NodeID(id), func(from NodeID, msg Message) {
				got[id] = append(got[id], arrival{t: k.Now(), from: from, msg: msg})
				// A second causal generation: reply to the first arrival.
				// (One reply only — an open cascade could manufacture exact
				// time ties, whose relative order is not part of the
				// shard-count invariance contract.)
				if !replied {
					replied = true
					nw.Send(NodeID(id), from, testMsg{sz: int(from) + id})
				}
			})
		}
		for id := 0; id < n; id++ {
			id := id
			nw := m.NetOf(NodeID(id))
			m.Kernel(m.ShardOf(NodeID(id))).At(float64(id)*1e-4, func() {
				for p := 0; p < n; p++ {
					if p != id {
						nw.Send(NodeID(id), NodeID(p), testMsg{sz: id})
					}
				}
			})
		}
		m.Run(1)
		return got
	}

	base := runAt(1)
	for _, S := range []int{2, 3, 4} {
		got := runAt(S)
		for id := 0; id < n; id++ {
			if len(got[id]) != len(base[id]) {
				t.Fatalf("S=%d node %d: %d arrivals, S=1 had %d", S, id, len(got[id]), len(base[id]))
			}
			for i := range got[id] {
				a, b := got[id][i], base[id][i]
				if a.t != b.t || a.from != b.from || a.msg.Size() != b.msg.Size() {
					t.Fatalf("S=%d node %d arrival %d = (%g,%d,%d), S=1 = (%g,%d,%d)",
						S, id, i, a.t, a.from, a.msg.Size(), b.t, b.from, b.msg.Size())
				}
			}
		}
	}
}

// TestShardMeshLookaheadSafety pins the barrier's correctness condition: a
// delivery is never scheduled into a shard's past, even under heavy
// cross-traffic with minimal lookahead (DeliverAt clamping would mask such
// a bug by warping arrival times — so equality-checking arrival times, as
// above, plus this stress, covers it).
func TestShardMeshLookaheadSafety(t *testing.T) {
	lat := LinearLatency(1e-3, 1e-6)
	const n = 8
	m := NewMesh(11, 4, lat, lat(0))
	m.PlaceBlocks(n)
	bad := make([]bool, n)
	for id := 0; id < n; id++ {
		id := id
		k := m.Kernel(m.ShardOf(NodeID(id)))
		nw := m.NetOf(NodeID(id))
		sent := 0
		var lastAt float64
		m.NetOf(NodeID(id)).Register(NodeID(id), func(from NodeID, msg Message) {
			now := k.Now()
			if now < lastAt {
				bad[id] = true // time ran backwards for this node
			}
			lastAt = now
			if sent < 200 {
				sent++
				nw.Send(NodeID(id), NodeID((id+1)%n), testMsg{sz: sent % 50})
				nw.Send(NodeID(id), NodeID((id+3)%n), testMsg{sz: sent % 31})
			}
		})
	}
	m.Net(0).Send(0, 1, testMsg{})
	m.Run(math.Inf(1))
	for id, b := range bad {
		if b {
			t.Errorf("node %d observed non-monotone delivery times", id)
		}
	}
	if m.Pending() != 0 {
		t.Errorf("pending = %d after full drain", m.Pending())
	}
}
