package gb

import (
	"sync"
	"sync/atomic"
	"time"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/live"
	"gossipbnb/internal/protocol"
)

// liveTrace instruments a real driver from outside: a live.Net that
// delegates to the TCP network with a span per Send and per transit, and a
// bnb.Problem whose subproblems sample their own Bound/Feasible/Branch
// time. One liveTrace serves one traced solve at a time.
type liveTrace struct {
	rec  *Recorder
	root int32 // the open solve span

	mu     sync.Mutex
	aggs   []*subAgg
	toDead atomic.Int64
}

// begin opens the solve span every wrapper span hangs under.
func (t *liveTrace) begin() {
	t.rec.NextSolve()
	t.aggs = nil
	t.toDead.Store(0)
	t.root = t.rec.Begin("solve")
}

// end turns the per-expander samples into one aggregate bnb.subproblem span
// each and closes the solve span.
func (t *liveTrace) end() {
	start := t.rec.Spans()[t.root].Start
	for _, a := range t.aggs {
		if a.sampled > 0 {
			est := int64(float64(a.ns) * float64(a.calls) / float64(a.sampled))
			t.rec.Add("bnb.subproblem", start, start+est, t.root)
		}
	}
	t.rec.End(t.root)
}

// --- traced problem -------------------------------------------------------------

// samplePeriod is how many subproblem calls pass between two timed ones. The
// calls are ~1 µs, so timing each would cost more than the call; the period
// is prime because an expansion makes a fixed pattern of four calls, and a
// multiple of four would time the same one every time.
const samplePeriod = 61

// subAgg accumulates one expander's sampled subproblem time. An expander is
// confined to its process's goroutine, so the fields need no lock; they are
// read after the run has joined every goroutine.
type subAgg struct {
	calls, sampled uint64
	ns             int64
}

type tracedProblem struct {
	inner bnb.Problem
	tr    *liveTrace
}

func (t *liveTrace) wrapProblem(p bnb.Problem) bnb.Problem { return tracedProblem{inner: p, tr: t} }

// Root is called once per expander, so each process gets its own aggregate.
func (p tracedProblem) Root() bnb.Subproblem {
	a := &subAgg{}
	p.tr.mu.Lock()
	p.tr.aggs = append(p.tr.aggs, a)
	p.tr.mu.Unlock()
	return &tracedSub{inner: p.inner.Root(), agg: a}
}

type tracedSub struct {
	inner bnb.Subproblem
	agg   *subAgg
}

// sample reports whether this call is a timed one.
func (a *subAgg) sample() bool {
	a.calls++
	return a.calls%samplePeriod == 0
}

func (a *subAgg) add(t0 time.Time) {
	a.ns += int64(time.Since(t0))
	a.sampled++
}

func (s *tracedSub) Bound() float64 {
	if s.agg.sample() {
		defer s.agg.add(time.Now())
	}
	return s.inner.Bound()
}

func (s *tracedSub) Feasible() (float64, bool) {
	if s.agg.sample() {
		defer s.agg.add(time.Now())
	}
	return s.inner.Feasible()
}

func (s *tracedSub) Branch() (uint32, bnb.Subproblem, bnb.Subproblem, bool) {
	var t0 time.Time
	timed := s.agg.sample()
	if timed {
		t0 = time.Now()
	}
	v, zero, one, ok := s.inner.Branch()
	if timed {
		s.agg.add(t0)
	}
	if !ok {
		return v, nil, nil, false
	}
	return v, &tracedSub{inner: zero, agg: s.agg}, &tracedSub{inner: one, agg: s.agg}, true
}

// --- traced network ---------------------------------------------------------------

// tracedNet implements live.Net over a TCPNetwork. Every inbox it hands out
// is fed by a forwarder goroutine reading the real inbox, which is where a
// live.net.transit span closes.
type tracedNet struct {
	*live.TCPNetwork
	tr *liveTrace

	mu sync.Mutex
	// sent[from][to] queues the send times of messages in flight on the
	// link. TCP delivers a link's messages in order, so the head belongs to
	// the next arrival; a message the transport drops leaves a stale head,
	// which only happens on links to or from a crashed node.
	sent map[[2]live.NodeID][]int64
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

func (t *liveTrace) wrapNet(n *live.TCPNetwork) live.Net {
	return &tracedNet{TCPNetwork: n, tr: t, sent: map[[2]live.NodeID][]int64{}, stop: make(chan struct{})}
}

var sendSpan = func() (names [protocol.KindCount]string) {
	for k := range names {
		names[k] = "live.net.send/" + protocol.KindName(byte(k))
	}
	return
}()

func (n *tracedNet) Send(from, to live.NodeID, msg live.Message) {
	rec := n.tr.rec
	start := rec.now()
	if n.TCPNetwork.Crashed(to) {
		n.tr.toDead.Add(1)
	}
	key := [2]live.NodeID{from, to}
	n.mu.Lock()
	n.sent[key] = append(n.sent[key], start)
	n.mu.Unlock()
	n.TCPNetwork.Send(from, to, msg)
	kind := 0
	if km, ok := msg.(interface{ Kind() byte }); ok && int(km.Kind()) < len(sendSpan) {
		kind = int(km.Kind())
	}
	rec.Add(sendSpan[kind], start, rec.now(), n.tr.root)
}

func (n *tracedNet) forward(id live.NodeID, in <-chan live.Envelope) <-chan live.Envelope {
	if in == nil {
		return nil
	}
	out := make(chan live.Envelope, cap(in))
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			select {
			case env := <-in:
				key := [2]live.NodeID{env.From, id}
				n.mu.Lock()
				q := n.sent[key]
				var start int64 = -1
				if len(q) > 0 {
					start, n.sent[key] = q[0], q[1:]
				}
				n.mu.Unlock()
				if start >= 0 {
					n.tr.rec.Add("live.net.transit", start, n.tr.rec.now(), n.tr.root)
				}
				select {
				case out <- env:
				default: // a full inbox drops, like the transport's own
				}
			case <-n.stop:
				return
			}
		}
	}()
	return out
}

func (n *tracedNet) Register(id live.NodeID) <-chan live.Envelope {
	return n.forward(id, n.TCPNetwork.Register(id))
}

func (n *tracedNet) Restart(id live.NodeID) <-chan live.Envelope {
	return n.forward(id, n.TCPNetwork.Restart(id))
}

func (n *tracedNet) Add(id live.NodeID) <-chan live.Envelope {
	return n.forward(id, n.TCPNetwork.Add(id))
}

// Close stops the forwarders, waits for them, and closes the network.
func (n *tracedNet) Close() {
	n.once.Do(func() {
		close(n.stop)
		n.wg.Wait()
	})
	n.TCPNetwork.Close()
}
