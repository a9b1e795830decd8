package live

import (
	"sync"
	"testing"
	"time"

	"gossipbnb/internal/protocol"
)

// bootWatch loses a joiner's first bootstrap reply, and — until the joiner
// asks again — everything else addressed to it but its first heartbeat, the
// answer to its Hello, so that only a retried bootstrap can fill its table or
// move it at all. It
// records when the joiner's subtree requests go out and when the reply was
// lost.
type bootWatch struct {
	Net
	joiner NodeID
	start  time.Time

	mu       sync.Mutex
	answered bool
	lostAt   time.Duration   // when the first reply was dropped; 0 = not yet
	requests []time.Duration // the joiner's subtree requests
}

func (w *bootWatch) Send(from, to NodeID, msg Message) {
	at := time.Since(w.start)
	w.mu.Lock()
	if _, ok := msg.(protocol.SubtreeRequest); ok && from == w.joiner {
		w.requests = append(w.requests, at)
	}
	cut := false
	if to == w.joiner && len(w.requests) < 2 {
		switch msg.(type) {
		case protocol.Heartbeat:
			cut, w.answered = w.answered, true
		case protocol.SubtreeReply:
			cut = true
			if w.lostAt == 0 {
				w.lostAt = at
			}
		default:
			cut = true
		}
	}
	w.mu.Unlock()
	if !cut {
		w.Net.Send(from, to, msg)
	}
}

// TestJoinerRetriesLostBootstrap: a live joiner whose bootstrap reply is lost
// asks again — the core's bootstrap retry, which the simulator has always
// run — within RequestTimeout of the loss (with as much again for the
// scheduler), and ends the run with a complete table.
func TestJoinerRetriesLostBootstrap(t *testing.T) {
	const retry = 20 * time.Millisecond // also the live RequestTimeout
	w := &bootWatch{Net: NewTransport(43, nil, 0), joiner: 2, start: time.Now()}
	cl := NewCluster(liveTree(43, 2001), Config{
		Nodes: 2, Seed: 43, TimeScale: 0.002, Network: w,
		RetryDelay: retry, RecoveryQuiet: time.Second,
	})
	addAfter(t, cl, 10*time.Millisecond, 1)
	res := cl.Run()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.lostAt == 0 {
		t.Fatalf("the joiner's bootstrap reply never came (requests at %v)", w.requests)
	}
	if len(w.requests) < 2 {
		t.Fatalf("the joiner never asked again after its bootstrap reply was lost at %v", w.lostAt)
	}
	if gap := w.requests[1] - w.lostAt; gap > 2*retry {
		t.Errorf("second bootstrap request %v after the loss, want within %v", gap, retry)
	}
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("cluster failed: %+v", res)
	}
	// Reaping releases a finished core's table, so the end state to check is
	// the detection itself: the joiner's table reached the root code.
	if !detectedBoot(cl, w.joiner) {
		t.Error("the joiner never completed its table")
	}
	t.Logf("reply lost at %v, requests at %v", w.lostAt, w.requests)
}
