// Sharded parallel simulation: a Mesh partitions the simulated processes
// into S shards, each owning one Kernel (the PR 5 paged arena + 4-ary heap,
// reused verbatim) and one Network, run on S worker goroutines under a
// conservative lookahead barrier (barrier.go). Cross-shard messages travel
// through per-shard-pair mailboxes stamped with their absolute arrival
// times and are drained into the destination kernel between windows.
//
// Determinism contract: for a fixed (seed, shard count) the run is exactly
// reproducible. Every shard kernel gets a seed derived from (seed, shard)
// by a splitmix64 step; the barrier sequence depends only on event times;
// mailboxes drain in (source-shard, FIFO) order, so cross-shard deliveries
// are assigned kernel sequence numbers deterministically. Changing the
// shard count changes tie-breaking order between simultaneous events (and
// which shard RNG serves a node's chaos draws) but nothing else — every
// delivery keeps its exact virtual arrival time.
package sim

import (
	"fmt"

	"gossipbnb/internal/nemesis"
)

// xmsg is one cross-shard mailbox entry: either a point-to-point message
// for to, or (bcast) a ring-range broadcast group [lo, lo+cnt).
type xmsg struct {
	at      float64
	from    NodeID
	to      NodeID
	lo, cnt int32
	msg     Message
	bcast   bool
}

// Mesh is a set of shard kernels advancing in lockstep windows.
// Build one with NewMesh, assign processes with PlaceBlocks, wire each
// node to its owner shard's Net, then call Run.
type Mesh struct {
	lookahead float64
	kernels   []*Kernel
	nets      []*Network
	n         int // ring size: total processes placed
	owner     []int32
	blockLo   []int32 // per shard: owned contiguous id range [lo, hi)
	blockHi   []int32
	// boxes[dst][src] is the src→dst mailbox. During a run window only the
	// src worker appends to it; during the drain phase only the dst worker
	// reads it. The two phases are separated by the barrier, so no entry is
	// ever accessed concurrently.
	boxes [][][]xmsg

	workers []chan meshCmd
	done    chan int
}

// splitmix64 is the seed-derivation step: one round of the SplitMix64
// generator, enough to decorrelate per-shard (and per-node) streams drawn
// from a single user seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed returns the deterministic sub-seed for stream i of seed.
func DeriveSeed(seed int64, i int) int64 {
	return int64(splitmix64(uint64(seed) ^ splitmix64(uint64(i)+1)))
}

// NewMesh creates a mesh of shards Kernel+Network pairs. lookahead is the
// static minimum cross-shard message delay in virtual seconds — for a
// LatencyModel this is the zero-byte latency (monotonicity makes it a lower
// bound), min'd with any replay floor. Between shards it must be positive: a
// zero lookahead admits no safe window and the conservative barrier
// degenerates. A one-shard mesh has no barrier and never consults it.
func NewMesh(seed int64, shards int, latency LatencyModel, lookahead float64) *Mesh {
	if shards < 1 {
		panic(fmt.Sprintf("sim: mesh needs >= 1 shard, got %d", shards))
	}
	if shards > 1 && lookahead <= 0 {
		panic(fmt.Sprintf("sim: mesh of %d shards needs positive lookahead, got %g", shards, lookahead))
	}
	m := &Mesh{
		lookahead: lookahead,
		kernels:   make([]*Kernel, shards),
		nets:      make([]*Network, shards),
		boxes:     make([][][]xmsg, shards),
	}
	for s := 0; s < shards; s++ {
		k := New(DeriveSeed(seed, -(s + 1)))
		nw := NewNetwork(k, latency)
		nw.mesh = m
		nw.self = s
		m.kernels[s] = k
		m.nets[s] = nw
		m.boxes[s] = make([][]xmsg, shards)
	}
	return m
}

// Shards returns the number of shards.
func (m *Mesh) Shards() int { return len(m.kernels) }

// Kernel returns shard s's kernel.
func (m *Mesh) Kernel(s int) *Kernel { return m.kernels[s] }

// Net returns shard s's network.
func (m *Mesh) Net(s int) *Network { return m.nets[s] }

// PlaceBlocks assigns n processes (ids 0..n-1) to shards in contiguous
// blocks: shard s owns [s·n/S, (s+1)·n/S). Contiguity is what lets a
// broadcast group intersect a shard's holdings with index arithmetic
// instead of a full ring scan.
func (m *Mesh) PlaceBlocks(n int) {
	S := len(m.kernels)
	m.n = n
	m.owner = make([]int32, n)
	m.blockLo = make([]int32, S)
	m.blockHi = make([]int32, S)
	for s := 0; s < S; s++ {
		lo, hi := s*n/S, (s+1)*n/S
		m.blockLo[s], m.blockHi[s] = int32(lo), int32(hi)
		for id := lo; id < hi; id++ {
			m.owner[id] = int32(s)
		}
	}
}

// ShardOf returns the shard owning id.
func (m *Mesh) ShardOf(id NodeID) int {
	if id < 0 || int(id) >= len(m.owner) {
		panic(fmt.Sprintf("sim: node %d not placed on mesh", id))
	}
	return int(m.owner[id])
}

// NetOf returns the network of the shard owning id — the one to Register
// the node's handler on and to Send from.
func (m *Mesh) NetOf(id NodeID) *Network { return m.nets[m.ShardOf(id)] }

// enqueue appends one point-to-point message to the src→dst mailbox.
// Called only by the src shard's worker during a run window.
func (m *Mesh) enqueue(src, dst int, at float64, from, to NodeID, msg Message) {
	m.boxes[dst][src] = append(m.boxes[dst][src], xmsg{at: at, from: from, to: to, msg: msg})
}

// broadcast fans a ring-range group out to every shard: the source shard
// schedules its own slice directly (the arrival is at least lookahead away,
// inside its own kernel's jurisdiction either way); every other shard gets
// one mailbox entry.
func (m *Mesh) broadcast(src int, at float64, from NodeID, lo, cnt int, msg Message) {
	for d := range m.kernels {
		if m.blockLo[d] == m.blockHi[d] {
			continue
		}
		if d == src {
			net := m.nets[d]
			m.kernels[d].At(at, func() { net.deliverRing(from, lo, cnt, msg) })
			continue
		}
		m.boxes[d][src] = append(m.boxes[d][src], xmsg{
			at: at, from: from, lo: int32(lo), cnt: int32(cnt), msg: msg, bcast: true,
		})
	}
}

// hasInbound reports whether any mailbox into dst holds messages.
func (m *Mesh) hasInbound(dst int) bool {
	for _, box := range m.boxes[dst] {
		if len(box) > 0 {
			return true
		}
	}
	return false
}

// drain moves every inbound mailbox entry into dst's kernel, in
// (source-shard, FIFO) order so sequence numbers — and therefore
// simultaneous-event tie-breaks — are assigned deterministically.
// Called only by the dst shard's worker, between run windows.
func (m *Mesh) drain(dst int) {
	net := m.nets[dst]
	k := m.kernels[dst]
	row := m.boxes[dst]
	for src := range row {
		box := row[src]
		for i := range box {
			x := &box[i]
			if x.bcast {
				from, lo, cnt, msg := x.from, int(x.lo), int(x.cnt), x.msg
				at := x.at
				if at < k.now {
					at = k.now
				}
				k.At(at, func() { net.deliverRing(from, lo, cnt, msg) })
			} else {
				k.DeliverAt(x.at, net.deliverHandler(x.to), x.from, x.msg)
			}
			box[i] = xmsg{} // release the payload reference
		}
		row[src] = box[:0]
	}
}

// Stats returns the merged ledgers of every shard, as a value copy.
func (m *Mesh) Stats() nemesis.NetStats {
	var s nemesis.NetStats
	for _, nw := range m.nets {
		s.Add(nw.stats)
	}
	return s
}

// Events returns the total events fired across all shard kernels.
func (m *Mesh) Events() uint64 {
	var n uint64
	for _, k := range m.kernels {
		n += k.fired
	}
	return n
}

// Now returns the maximum shard clock — the mesh's notion of elapsed
// virtual time after a Run.
func (m *Mesh) Now() float64 {
	var t float64
	for _, k := range m.kernels {
		if k.now > t {
			t = k.now
		}
	}
	return t
}

// Pending returns the total pending events plus undrained mailbox entries.
func (m *Mesh) Pending() int {
	n := 0
	for _, k := range m.kernels {
		n += k.Pending()
	}
	for dst := range m.boxes {
		for _, box := range m.boxes[dst] {
			n += len(box)
		}
	}
	return n
}
