package live

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/ctree"
	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/protocol"
)

// fanoutNet watches every report a cluster hands its transport. A flush is
// named by its snapshot — the core takes a fresh one per flush, and the
// in-memory transport passes messages by reference — so (link, snapshot) seen
// twice is one flush's report put on one link twice.
type fanoutNet struct {
	Net
	mu     sync.Mutex
	seen   map[fanoutKey]bool
	repeat int
	// flushes counts boot-instance reports other than the bare root report
	// (termination broadcast, a finished process's answer to a work request):
	// exactly the sends Core.FlushReport made. tagged counts reports of
	// submitted instances.
	flushes, tagged int
	kinds           [nemesis.MsgKinds]int64
}

type fanoutKey struct {
	from, to NodeID
	flush    *ctree.Table // retained, so the address cannot be reused
}

func (f *fanoutNet) Send(from, to NodeID, msg Message) {
	f.note(from, to, msg)
	f.Net.Send(from, to, msg)
}

func (f *fanoutNet) note(from, to NodeID, msg Message) {
	inner, isTagged := msg, false
	if im, ok := msg.(protocol.InstMsg); ok {
		inner, isTagged = im.Msg, true
	}
	var flush *ctree.Table
	switch t := inner.(type) {
	case protocol.Report:
		flush = t.Snapshot()
	case protocol.DigestReport:
		flush = t.Snapshot() // ctree.Empty on a bare table-digest push
	default:
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.kinds[nemesis.KindOf(msg)]++
	if flush == nil || flush == ctree.Empty() || flush == ctree.Done() {
		return // no flush: a bare digest push, or a root report
	}
	k := fanoutKey{from, to, flush}
	if f.seen[k] {
		f.repeat++
	}
	f.seen[k] = true
	if isTagged {
		f.tagged++
	} else {
		f.flushes++
	}
}

// TestFlushReachesEachPeerOnce: FlushReport draws its ReportFanout targets
// with replacement — on a two-node cluster both draws of every flush name the
// one peer — and the sender must put the report on each drawn link once.
func TestFlushReachesEachPeerOnce(t *testing.T) {
	for _, nodes := range []int{2, 4} {
		for _, diff := range []bool{false, true} {
			t.Run(fmt.Sprintf("nodes=%d/diff=%v", nodes, diff), func(t *testing.T) {
				net := &fanoutNet{Net: NewTransport(51, nil, 0), seen: map[fanoutKey]bool{}}
				cl := NewCluster(liveTree(51, 401), Config{
					Nodes: nodes, Seed: 51, TimeScale: 0.0005, DiffGossip: diff,
					Network: net, Timeout: 60 * time.Second,
				})
				resCh := make(chan Result, 1)
				go func() { resCh <- cl.Run() }()
				h := submitWhenRunning(t, cl, bnb.RandomKnapsack(rand.New(rand.NewSource(52)), 14))
				res := <-resCh
				if !res.Terminated || !res.OptimumOK {
					t.Fatalf("boot problem failed: %+v", res)
				}
				if _, ok := h.Result(); !ok {
					t.Fatal("submitted instance failed")
				}

				if net.repeat > 0 {
					t.Errorf("%d reports went to a peer that the same flush had already reached", net.repeat)
				}
				if net.tagged == 0 {
					t.Error("no instance-tagged report was sent; the tagged path went unchecked")
				}
				// The transport's own per-kind ledger saw what the watcher saw.
				for _, k := range []byte{protocol.KindReport, protocol.KindDigestReport} {
					if res.Net.KindSent[k] != net.kinds[k] {
						t.Errorf("%s: NetStats counts %d sent, the watcher %d", protocol.KindName(k), res.Net.KindSent[k], net.kinds[k])
					}
				}
				draws := 0
				for _, n := range cl.nodes {
					draws += n.cur.boot.Counters().ReportsSent
				}
				switch {
				case nodes == 2 && net.flushes*2 != draws:
					// One peer: every flush drew it twice and sent once.
					t.Errorf("boot instance: %d report sends for %d fan-out draws on a two-node view, want exactly half", net.flushes, draws)
				case net.flushes > draws:
					t.Errorf("boot instance: %d report sends exceed %d fan-out draws", net.flushes, draws)
				}
				t.Logf("%d fan-out draws → %d sends (+%d tagged)", draws, net.flushes, net.tagged)
			})
		}
	}
}
