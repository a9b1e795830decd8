package live

import (
	"sync"
	"testing"
	"time"

	"gossipbnb/internal/protocol"
)

// sendAt is one message a probeWatch saw: when it was handed to the
// transport, and the peer at its other end.
type sendAt struct {
	at   time.Duration
	peer NodeID
}

// probeWatch records, per node, the work requests it sends and the grants
// and denies addressed to it, in the order they reach the transport. It
// loses every third work request itself, so that some probes are certain to
// go unanswered.
type probeWatch struct {
	Net
	start    time.Time
	mu       sync.Mutex
	requests int
	probes   map[NodeID][]sendAt // by requester
	answers  map[NodeID][]sendAt // by requester
}

func newProbeWatch(inner Net) *probeWatch {
	return &probeWatch{Net: inner, start: time.Now(), probes: map[NodeID][]sendAt{}, answers: map[NodeID][]sendAt{}}
}

func (w *probeWatch) Send(from, to NodeID, msg Message) {
	at := time.Since(w.start)
	lost := false
	w.mu.Lock()
	switch msg.(type) {
	case protocol.WorkRequest:
		w.requests++
		lost = w.requests%3 == 0
		w.probes[from] = append(w.probes[from], sendAt{at, to})
	case protocol.WorkGrant, protocol.WorkDeny:
		w.answers[to] = append(w.answers[to], sendAt{at, from})
	}
	w.mu.Unlock()
	if !lost {
		w.Net.Send(from, to, msg)
	}
}

// answered reports whether peer answered node between a and b.
func (w *probeWatch) answered(node, peer NodeID, a, b time.Duration) bool {
	for _, s := range w.answers[node] {
		if s.peer == peer && s.at > a && s.at < b {
			return true
		}
	}
	return false
}

// TestIdleProbeWaitsForAnswerOrTimeout: a starving node keeps its work
// request outstanding through unrelated traffic. Between two probes from one
// node, either the first was answered, or its RequestTimeout ran out and the
// retry pace after it started — two RetryDelays on the live runtime, checked
// here at one and a half to leave room for the scheduler.
func TestIdleProbeWaitsForAnswerOrTimeout(t *testing.T) {
	const (
		nodes = 4
		retry = 10 * time.Millisecond // also the live RequestTimeout
	)
	w := newProbeWatch(NewTransport(71, nil, 0))
	cl := NewCluster(liveTree(71, 801), Config{
		Nodes: nodes, Seed: 71, TimeScale: 0.02, Network: w,
		RetryDelay: retry, RecoveryQuiet: time.Second, Timeout: 60 * time.Second,
	})
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("cluster failed: %+v", res)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	unanswered := 0
	for node, ps := range w.probes {
		for i := 1; i < len(ps); i++ {
			first, next := ps[i-1], ps[i]
			if w.answered(node, first.peer, first.at, next.at) {
				continue
			}
			unanswered++
			if gap := next.at - first.at; gap < retry+retry/2 {
				t.Errorf("node %d probed %d at %v and again at %v: %v later, with no answer and before the timeout and pace",
					node, first.peer, first.at, next.at, gap)
			}
		}
	}
	t.Logf("%d probes, %d followed by another with no answer in between", w.requests, unanswered)
	if unanswered < 3 {
		t.Errorf("only %d unanswered probes were followed by another: the scenario no longer tests the timeout", unanswered)
	}
}
