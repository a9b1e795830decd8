package live

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gossipbnb/internal/protocol"
)

// snapshotFanout hands every table push a cluster sends — a starving
// process's work request carrying the sender's frozen table snapshot — to
// every other node as well, and encodes and decodes it on a goroutine of its
// own: one snapshot is then merged by several receiving node loops and
// encoded at the same time.
type snapshotFanout struct {
	Net
	nodes                int
	wg                   sync.WaitGroup
	pushes, copies, bads atomic.Int64
}

func (f *snapshotFanout) Send(from, to NodeID, msg Message) {
	f.Net.Send(from, to, msg)
	m, ok := msg.(protocol.WorkRequest)
	if !ok || m.Snapshot() == nil || m.Len() == 0 {
		return // not a push of a non-empty snapshot
	}
	f.pushes.Add(1)
	for p := 0; p < f.nodes; p++ {
		if id := NodeID(p); id != from && id != to {
			f.Net.Send(from, id, msg)
			f.copies.Add(1)
		}
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		buf, err := protocol.Encode(nil, m)
		back, _, derr := protocol.Decode(buf)
		if err != nil || derr != nil || len(buf) != m.Size() || back.(protocol.WorkRequest).Len() != m.Len() {
			f.bads.Add(1)
		}
	}()
}

// TestSnapshotSharedLiveCluster: on the in-memory transport, which hands
// messages over by reference, every table push reaches every node and is
// encoded concurrently; the cluster still finishes with the optimum, and
// under -race no reader ever writes into a shared snapshot. Every node a
// copy reaches answers the request too, so the requester also meets grants
// it did not ask for.
func TestSnapshotSharedLiveCluster(t *testing.T) {
	const nodes = 6
	net := &snapshotFanout{Net: NewTransport(61, nil, 0), nodes: nodes}
	cl := NewCluster(liveTree(61, 801), Config{
		Nodes: nodes, Seed: 61, TimeScale: 0.0005, Network: net, Timeout: 60 * time.Second,
	})
	res := cl.Run()
	net.wg.Wait()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("%+v", res)
	}
	t.Logf("%d snapshot pushes, %d extra deliveries", net.pushes.Load(), net.copies.Load())
	if net.pushes.Load() == 0 || net.copies.Load() == 0 {
		t.Fatalf("%d snapshot pushes, %d extra deliveries: the scenario no longer shares a snapshot", net.pushes.Load(), net.copies.Load())
	}
	if n := net.bads.Load(); n > 0 {
		t.Errorf("%d concurrent encodings of a shared snapshot did not round-trip to its size and length", n)
	}
}
