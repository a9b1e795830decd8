package live

import (
	"sync"
	"testing"
	"time"

	"gossipbnb/internal/ctree"
	"gossipbnb/internal/protocol"
)

// rootWatch sorts the root reports a cluster hands its transport into answers
// and unsolicited ones. A finished node answers every work request with one
// root report, and a node has one work request outstanding at a time, so a
// root report s → d is an answer if d's latest request went to s and nothing
// has answered it yet. Requests are noted before they are forwarded, so an
// answer finds its request; a broadcast copy that crosses a request is taken
// for its answer, which only under-counts the unsolicited ones. onRoot, if
// set, sees every root report after it was forwarded, and whether it was an
// answer.
type rootWatch struct {
	Net
	mu          sync.Mutex
	asked       map[NodeID]NodeID // requester → target of its outstanding work request
	unsolicited map[NodeID]int
	answers     int
	onRoot      func(from NodeID, answer bool)
}

func newRootWatch(inner Net) *rootWatch {
	return &rootWatch{Net: inner, asked: map[NodeID]NodeID{}, unsolicited: map[NodeID]int{}}
}

// answered pairs a message from → to off against to's outstanding request.
func (w *rootWatch) answered(from, to NodeID) bool {
	if target, ok := w.asked[to]; !ok || target != from {
		return false
	}
	delete(w.asked, to)
	return true
}

func (w *rootWatch) Send(from, to NodeID, msg Message) {
	root, answer := false, false
	w.mu.Lock()
	switch m := msg.(type) {
	case protocol.WorkRequest:
		w.asked[from] = to
	case protocol.WorkDeny, protocol.WorkGrant:
		w.answered(from, to)
	case protocol.Report:
		if root = m.Snapshot() == ctree.Done(); !root {
			break
		}
		if answer = w.answered(from, to); answer {
			w.answers++
		} else {
			w.unsolicited[from]++
		}
	}
	w.mu.Unlock()
	w.Net.Send(from, to, msg)
	if root && w.onRoot != nil {
		w.onRoot(from, answer)
	}
}

// checkRootTraffic holds a finished run to the termination bound: a node that
// was told forwards ReportFanout unsolicited root reports, a node that
// detected broadcasts nodes − 1, and nothing else is allowed. Detecting takes
// a table completed from partial information in the instant before a peer's
// broadcast lands, so broadcasters are a minority; with the echo every node
// was one.
func checkRootTraffic(t *testing.T, w *rootWatch, nodes int) {
	t.Helper()
	const fanout = 2 // protocol.Config's default ReportFanout, which a live cluster always uses
	w.mu.Lock()
	defer w.mu.Unlock()
	broadcasters, total := 0, 0
	for id := NodeID(0); int(id) < nodes; id++ {
		u := w.unsolicited[id]
		total += u
		switch {
		case u <= fanout:
		case u <= nodes-1:
			broadcasters++
		default:
			t.Errorf("node %d sent %d unsolicited root reports, more than one broadcast", id, u)
		}
	}
	if broadcasters == 0 || broadcasters > nodes/2 {
		t.Errorf("%d of %d nodes broadcast the root report, want at least one detector and a minority", broadcasters, nodes)
	}
	if bound := broadcasters*(nodes-1) + (nodes-broadcasters)*fanout; total > bound {
		t.Errorf("%d unsolicited root reports, want at most %d (%d broadcasts, %d forwards per learner)", total, bound, broadcasters, fanout)
	}
	t.Logf("%d unsolicited root reports from %d broadcasters, %d probe answers", total, broadcasters, w.answers)
}

// TestTerminationUnderHeavyLoss: 16 nodes, three messages in ten lost. The
// detector's broadcast reaches about eleven peers, their forwards most of the
// rest, and whoever is still missed probes a finished node within a retry.
func TestTerminationUnderHeavyLoss(t *testing.T) {
	const nodes = 16
	w := newRootWatch(NewTransport(61, nil, 0.3))
	cl := NewCluster(liveTree(61, 601), Config{
		Nodes: nodes, Seed: 61, TimeScale: 0.0005, Network: w,
		RecoveryQuiet: 40 * time.Millisecond, Timeout: 120 * time.Second,
	})
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("lossy cluster failed: %+v", res)
	}
	checkRootTraffic(t, w, nodes)
}

// TestTerminationDetectorDiesMidBroadcast: the first node to detect
// termination is crashed after a single copy of its broadcast left. The one
// node it told forwards the news, the rest pull it by probing, and everyone
// alive terminates at the optimum without a second solve. The first root
// report of a run is a detector's — a learner needs one to learn — but it can
// be the detector's answer to the probe whose table push completed its table,
// which leaves before the broadcast; the crash waits for the broadcast.
func TestTerminationDetectorDiesMidBroadcast(t *testing.T) {
	const nodes = 8
	w := newRootWatch(NewTransport(62, nil, 0))
	cl := NewCluster(liveTree(62, 601), Config{
		Nodes: nodes, Seed: 62, TimeScale: 0.0005, Network: w,
		RecoveryQuiet: 40 * time.Millisecond, Timeout: 120 * time.Second,
	})
	var mu sync.Mutex
	first, crashed := NodeID(-1), false
	w.onRoot = func(from NodeID, answer bool) {
		mu.Lock()
		defer mu.Unlock()
		if first < 0 {
			first = from
		}
		if from == first && !answer && !crashed {
			crashed = true
			cl.Crash(from)
		}
	}
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("cluster failed after its first detector died: %+v", res)
	}
	if first < 0 || !cl.tr.Crashed(first) {
		t.Fatalf("first detector %d was not crashed", first)
	}
	if got := w.unsolicited[first]; got <= 2 {
		t.Errorf("crashed detector attempted %d root reports, want a broadcast", got)
	}
}
