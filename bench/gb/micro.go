package gb

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/btree"
	"gossipbnb/internal/code"
	"gossipbnb/internal/ctree"
	"gossipbnb/internal/instance"
	"gossipbnb/internal/live"
	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/protocol"
	"gossipbnb/internal/sim"
)

// The layer micro-drivers replay the streams the loopback harness recorded
// through each layer's public functions. Every number is the median of reps
// measurements of at least dur each.
type micro struct {
	dur  time.Duration
	reps int
}

// timedFn performs about n operations and reports how long they took and how
// many it did (in whatever unit the metric is per: calls, codes, KB). It
// does its own timing so set-up between operations stays outside.
type timedFn func(n int) (elapsed time.Duration, ops float64)

// perOp calibrates n until one call of fn lasts dur, then returns the median
// nanoseconds per operation over reps calls.
func (m micro) perOp(fn timedFn) float64 {
	n := 1
	for {
		d, _ := fn(n)
		if d >= m.dur || n >= 1<<30 {
			break
		}
		grow := 100.0
		if d > 0 {
			grow = math.Min(grow, 1.2*float64(m.dur)/float64(d))
		}
		n = int(float64(n)*math.Max(grow, 1.5)) + 1
	}
	vals := make([]float64, m.reps)
	for i := range vals {
		d, ops := fn(n)
		vals[i] = float64(d) / ops
	}
	return median(vals)
}

// loop adapts a body that runs one pass over a stream of `per` operations.
func loop(per float64, pass func()) timedFn {
	return func(n int) (time.Duration, float64) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			pass()
		}
		return time.Since(t0), float64(n) * per
	}
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink struct {
	n   int
	u   uint64
	f   float64
	b   []byte
	c   code.Code
	cs  []code.Code
	msg protocol.Msg
}

// streams is what the harness recorded, decoded for replay.
type streams struct {
	codes   []code.Code    // local completions, in order, roots excluded
	msgs    []protocol.Msg // sampled messages (InstMsg-wrapped where tagged)
	bytes   float64        // their total encoded size
	batches [][]code.Code  // the code lists reports and tables carried
	// bytesPerCode is the mean wire size of a code in those lists.
	bytesPerCode float64
}

// msgOverhead is what a code-carrying message weighs besides its codes: the
// kind byte, two float64 scalars and a one-byte count.
const msgOverhead = 18

func decodeStreams(res harnessResult) streams {
	var s streams
	for _, c := range res.Completions {
		if len(c) > 0 {
			s.codes = append(s.codes, c)
		}
	}
	for _, b := range res.Messages {
		inst, m, _, err := protocol.DecodeInstance(b)
		if err != nil {
			continue
		}
		switch t := m.(type) {
		case protocol.Report:
			s.batches = append(s.batches, t.Codes)
		case protocol.TableMsg:
			s.batches = append(s.batches, t.Codes)
		case protocol.DigestReport:
			s.batches = append(s.batches, t.Codes)
		}
		if inst != 0 {
			m = protocol.InstMsg{Instance: inst, Msg: m}
		}
		s.msgs = append(s.msgs, m)
		s.bytes += float64(len(b))
	}
	wire, codes := 0, 0
	for _, b := range s.batches {
		codes += len(b)
		for _, c := range b {
			wire += c.WireSize()
		}
	}
	if codes > 0 {
		s.bytesPerCode = float64(wire) / float64(codes)
	}
	return s
}

// --- code ----------------------------------------------------------------------

func (m micro) code(out map[string]float64, s streams) {
	if len(s.codes) == 0 {
		return
	}
	n := float64(len(s.codes))
	out["code.encode_ns"] = m.perOp(loop(n, func() {
		for _, c := range s.codes {
			sink.b = c.EncodeInto(sink.b)
		}
	}))
	encs := make([][]byte, len(s.codes))
	for i, c := range s.codes {
		encs[i] = c.Append(nil)
	}
	out["code.decode_ns"] = m.perOp(loop(n, func() {
		for _, b := range encs {
			sink.c, sink.n, _ = code.Decode(b)
		}
	}))
	scratch := make(code.Code, 0, 256)
	out["code.append_child_ns"] = m.perOp(loop(n, func() {
		for _, c := range s.codes {
			last := c[len(c)-1]
			sink.c = scratch[:len(c)-1].AppendChild(last.Var, last.Branch)
		}
	}))
}

// --- ctree ---------------------------------------------------------------------

func (m micro) ctree(out map[string]float64, s streams) {
	if len(s.codes) < 4 {
		return
	}
	n := float64(len(s.codes))
	tbl := ctree.New()
	insertPass := func() {
		tbl.Reset()
		for _, c := range s.codes {
			tbl.Insert(c)
		}
	}
	out["ctree.insert_ns"] = m.perOp(loop(n, insertPass))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	insertPass()
	runtime.ReadMemStats(&m1)
	out["ctree.allocs_per_insert"] = float64(m1.Mallocs-m0.Mallocs) / n

	// Digest is read where diff gossip reads it: once per report batch.
	const batch = 8
	withDigest := m.perOp(loop(n, func() {
		tbl.Reset()
		for i, c := range s.codes {
			tbl.Insert(c)
			if i%batch == batch-1 {
				sink.u = tbl.Digest()
			}
		}
	}))
	out["ctree.digest_ns"] = math.Max(0, withDigest-out["ctree.insert_ns"]) * batch

	half := ctree.New()
	for _, c := range s.codes[:len(s.codes)/2] {
		half.Insert(c)
	}
	rest := ctree.New()
	for _, c := range s.codes[len(s.codes)/2:] {
		rest.Insert(c)
	}
	frontier := float64(max(half.Len(), 1))
	out["ctree.contraction_ratio"] = float64(len(s.codes)/2) / frontier

	if len(s.batches) > 0 {
		total := 0
		for _, b := range s.batches {
			total += len(b)
		}
		if total > 0 {
			out["ctree.insertall_ns_per_code"] = m.perOp(loop(float64(total), func() {
				tbl.Reset()
				for _, b := range s.batches {
					tbl.InsertAll(b)
				}
			}))
		}
	}
	if k := rest.Len(); k > 0 {
		out["ctree.merge_ns_per_code"] = m.perOp(func(n int) (time.Duration, float64) {
			var el time.Duration
			for i := 0; i < n; i++ {
				a := half.Clone()
				t0 := time.Now()
				a.Merge(rest)
				el += time.Since(t0)
			}
			return el, float64(n * k)
		})
	}
	// Codes caches its result until the next mutation; a clone starts cold.
	out["ctree.codes_ns"] = m.perOp(func(n int) (time.Duration, float64) {
		var el time.Duration
		for i := 0; i < n; i++ {
			c := half.Clone()
			t0 := time.Now()
			sink.cs = c.Codes()
			el += time.Since(t0)
		}
		return el, float64(n)
	})
	out["ctree.complement_ns"] = m.perOp(loop(1, func() { sink.cs = half.Complement(8) }))
	out["ctree.children_ns"] = m.perOp(loop(n, func() {
		for _, c := range s.codes {
			v, _, _ := half.Children(c[:len(c)/2])
			sink.u = uint64(v)
		}
	}))
	out["ctree.encode_ns_per_code"] = m.perOp(loop(frontier, func() { sink.b = half.Encode(sink.b[:0]) }))
	enc := half.Encode(nil)
	out["ctree.decode_ns_per_code"] = m.perOp(loop(frontier, func() {
		t, _ := ctree.Decode(enc)
		sink.n = t.Len()
	}))
}

// --- protocol codec --------------------------------------------------------------

func (m micro) codec(out map[string]float64, s streams) {
	if len(s.msgs) > 0 {
		kb := s.bytes / 1024
		out["protocol.codec.encode_ns_per_kb"] = m.perOp(loop(kb, func() {
			for _, msg := range s.msgs {
				sink.b, _ = protocol.Encode(sink.b[:0], msg)
			}
		}))
		encs := make([][]byte, len(s.msgs))
		for i, msg := range s.msgs {
			encs[i], _ = protocol.Encode(nil, msg)
		}
		out["protocol.codec.decode_ns_per_kb"] = m.perOp(loop(kb, func() {
			for _, b := range encs {
				_, sink.msg, sink.n, _ = protocol.DecodeInstance(b)
			}
		}))
	}
	tagged := protocol.InstMsg{Instance: 7, Msg: protocol.WorkRequest{Incumbent: 1, ActAge: 2}}
	out["protocol.codec.inst_header_ns"] = m.perOp(loop(1, func() {
		sink.b, _ = protocol.Encode(sink.b[:0], tagged)
		_, sink.msg, sink.n, _ = protocol.DecodeInstance(sink.b)
	}))
}

// --- bnb -----------------------------------------------------------------------

func (m micro) bnb(out map[string]float64, p bnb.Problem, ref bnb.Result, s streams) {
	perExp := m.perOp(loop(float64(ref.Expanded), func() { sink.n = bnb.SolveProblem(p).Expanded }))
	out["bnb.seq_expansions_per_s"] = 1e9 / perExp

	// Warm outcomes: a depth-first walk, so every state is derived from its
	// cached parent in one Branch call.
	out["bnb.expander.outcome_ns"] = m.perOp(func(n int) (time.Duration, float64) {
		e := bnb.NewExpander(p)
		stack := []protocol.Item{e.Root()}
		done := 0
		t0 := time.Now()
		for done < n && len(stack) > 0 {
			it := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack = append(stack, e.Outcome(it).Children...)
			done++
		}
		return time.Since(t0), float64(max(done, 1))
	})

	// Cold locates: the deepest recorded codes on an expander that has seen
	// nothing, as a work grant or a recovery arrives.
	deep := append([]code.Code(nil), s.codes...)
	sort.SliceStable(deep, func(i, j int) bool { return len(deep[i]) > len(deep[j]) })
	if len(deep) > 256 {
		deep = deep[:256]
	}
	if len(deep) > 0 {
		out["bnb.expander.locate_cold_ns"] = m.perOp(func(n int) (time.Duration, float64) {
			var el time.Duration
			for i := 0; i < n; i++ {
				e := bnb.NewExpander(p)
				t0 := time.Now()
				it, _ := e.Locate(deep[i%len(deep)])
				el += time.Since(t0)
				sink.f = it.Bound
			}
			return el, float64(n)
		})
	}
}

// --- sim -----------------------------------------------------------------------

func noop()                               {}
func noopHandler(sim.NodeID, sim.Message) {}

// ringSize is the broadcast micro-driver's ring: the stress tier's.
const ringSize = 10000

func (m micro) sim(out map[string]float64) {
	inf := math.Inf(1)
	out["sim.kernel.event_ns"] = m.perOp(func(n int) (time.Duration, float64) {
		k := sim.New(1)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			k.After(float64(i%97)*1e-3, noop)
		}
		k.Run(inf)
		return time.Since(t0), float64(n)
	})
	var msg sim.Message = protocol.WorkRequest{}
	out["sim.network.send_deliver_ns"] = m.perOp(func(n int) (time.Duration, float64) {
		k := sim.New(1)
		nw := sim.NewNetwork(k, paperLatency)
		nw.Register(0, noopHandler)
		nw.Register(1, noopHandler)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			nw.Send(0, 1, msg)
		}
		k.Run(inf)
		return time.Since(t0), float64(n)
	})

	ring := sim.NewMesh(1, 1, paperLatency, paperLatency(0))
	ring.PlaceBlocks(ringSize)
	for id := 0; id < ringSize; id++ {
		ring.NetOf(sim.NodeID(id)).Register(sim.NodeID(id), noopHandler)
	}
	out["sim.network.broadcast_range_ns_per_dst"] = m.perOp(loop(ringSize-1, func() {
		ring.Net(0).BroadcastRange(0, 1, ringSize-1, msg)
		ring.Run(inf)
	}))

	shards := runtime.GOMAXPROCS(0)
	if shards < 2 {
		return // one shard runs the plain kernel loop: there is no barrier
	}
	lookahead := paperLatency(0)
	mesh := sim.NewMesh(1, shards, paperLatency, lookahead)
	mesh.PlaceBlocks(shards)
	out["sim.mesh.barrier_ns"] = m.perOp(func(n int) (time.Duration, float64) {
		// One event per shard every two lookaheads: each window fires
		// exactly one time step, so windows = n.
		base := mesh.Now() + 1
		for s := 0; s < shards; s++ {
			k := mesh.Kernel(s)
			for i := 0; i < n; i++ {
				k.At(base+float64(i)*2*lookahead, noop)
			}
		}
		t0 := time.Now()
		mesh.Run(inf)
		return time.Since(t0), float64(n)
	})
}

// --- instance ------------------------------------------------------------------

type nullSender struct{}

func (nullSender) Send(protocol.NodeID, protocol.Msg) {}

type fixedClock float64

func (c fixedClock) Now() float64 { return float64(c) }

// idleCore builds a core with an empty pool: Next reports Starved.
func idleCore(exp protocol.Expander) *protocol.Core {
	return protocol.New(0, protocol.Config{}, protocol.Deps{
		Clock: fixedClock(0), Sender: nullSender{}, Expander: exp,
		Peers: func() []protocol.NodeID { return nil },
		Rand:  func(int) int { return 0 },
	})
}

func (m micro) instance(out map[string]float64) {
	const open = 8
	exp := btree.Expander{Tree: &btree.Tree{Nodes: []btree.Node{{Children: [2]int32{btree.NoChild, btree.NoChild}}}}}
	mux := instance.NewMux()
	for i := 1; i <= open; i++ {
		mux.Open(instance.ID(i), idleCore(exp), exp)
	}
	i := 0
	out["instance.mux.route_ns"] = m.perOp(loop(1, func() {
		i++
		_, v := mux.Route(instance.ID(1 + i%open))
		sink.n = int(v)
	}))
	out["instance.mux.next_ns"] = m.perOp(loop(1, func() {
		_, _, st := mux.Next()
		sink.n = int(st)
	}))
	out["instance.mux.open_reap_ns"] = m.perOp(func(n int) (time.Duration, float64) {
		n = min(n, 1<<16)
		cores := make([]*protocol.Core, n)
		for j := range cores {
			cores[j] = idleCore(exp)
		}
		fresh := instance.NewMux()
		t0 := time.Now()
		for j, c := range cores {
			fresh.Open(instance.ID(j+1), c, exp)
			fresh.Reap(instance.ID(j + 1))
		}
		return time.Since(t0), float64(n)
	})
}

// --- nemesis -------------------------------------------------------------------

func (m micro) nemesis(out map[string]float64) error {
	faults, err := nemesis.ParseAll([]string{
		"partition:1-2:0,1", "oneway:2-3:0|1", "flap:0-1:100ms:3-4",
		"stall:2:4-5", "slow:1-2:5ms:5-6", "corrupt:0.01:6-7",
	})
	if err != nil {
		return err
	}
	s := nemesis.New(faults...)
	i := 0
	out["nemesis.verdict_ns"] = m.perOp(loop(1, func() {
		i++
		v := s.At(i%4, (i+1)%4, time.Duration(i%8000)*time.Millisecond)
		sink.f = v.Corrupt
	}))
	return nil
}

// --- live transports -------------------------------------------------------------

// sizedReport builds a work report whose encoding is about size bytes.
func sizedReport(size int) protocol.Report {
	r := protocol.Report{Incumbent: 1}
	c := code.Root()
	for d := uint32(1); d <= 12; d++ {
		c = c.Child(d, uint8(d&1))
	}
	for r.Size() < size {
		r.Codes = append(r.Codes, c)
	}
	return r
}

// pairNet is the slice of live.Net the transport drivers use.
type pairNet interface {
	Register(live.NodeID) <-chan live.Envelope
	Send(from, to live.NodeID, msg live.Message)
	Close()
}

// throughput saturates the 0 → 1 link from one sender goroutine and counts
// arrivals for dur; it returns messages per second.
func throughput(nw pairNet, in <-chan live.Envelope, msg live.Message, dur time.Duration) float64 {
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			nw.Send(0, 1, msg)
		}
	}()
	// Let the connection dial and the pipe fill before counting.
	<-in
	got := 0
	t0 := time.Now()
	deadline := time.After(dur)
count:
	for {
		select {
		case <-in:
			got++
		case <-deadline:
			break count
		}
	}
	el := time.Since(t0)
	stop.Store(true)
	// Keep draining so a sender blocked on a full socket can finish.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-in:
		case <-done:
			return float64(got) / el.Seconds()
		}
	}
}

// latencySamples is how many paced sends the latency drivers time.
const latencySamples = 2000

// latency paces latencySamples sends at rate per second and returns the
// sorted send-to-inbox times in microseconds. The sequence number rides in
// the message's ActAge field.
func latency(nw pairNet, in <-chan live.Envelope, rate float64) []float64 {
	sent := make([]atomic.Int64, latencySamples)
	gap := time.Duration(float64(time.Second) / rate)
	epoch := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := time.Now()
		for i := 0; i < latencySamples; i++ {
			// The gap is microseconds, too short to sleep; yield while
			// waiting so the transport's reader goroutines get a processor.
			for time.Now().Before(next) {
				runtime.Gosched()
			}
			next = next.Add(gap)
			sent[i].Store(int64(time.Since(epoch)))
			nw.Send(0, 1, protocol.Ping{ActAge: float64(i)})
		}
	}()
	var lat []float64
	timeout := time.After(5 * time.Second)
recv:
	for len(lat) < latencySamples {
		select {
		case env := <-in:
			if p, ok := env.Msg.(protocol.Ping); ok {
				at := int64(time.Since(epoch))
				lat = append(lat, float64(at-sent[int(p.ActAge)].Load())/1e3)
			}
		case <-timeout:
			break recv // a dropped message: report what arrived
		}
	}
	wg.Wait()
	sort.Float64s(lat)
	return lat
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}

func (m micro) live(out map[string]float64, samples map[string]int) error {
	window := m.dur * time.Duration(m.reps)
	var rate64 float64
	for _, sz := range []struct {
		size int
		tag  string
	}{{64, "64b"}, {16 << 10, "16k"}} {
		tcp, err := live.NewTCPNetwork(2)
		if err != nil {
			return err
		}
		msg := sizedReport(sz.size)
		rate := throughput(tcp, tcp.Register(1), msg, window)
		tcp.Close()
		out["live.tcp.msgs_per_s_"+sz.tag] = rate
		out["live.tcp.mb_per_s_"+sz.tag] = rate * float64(msg.Size()) / 1e6
		if sz.size == 64 {
			rate64 = rate
		}
	}
	tcp, err := live.NewTCPNetwork(2)
	if err != nil {
		return err
	}
	lat := latency(tcp, tcp.Register(1), rate64/2)
	tcp.Close()
	out["live.tcp.latency_p50_us"] = quantile(lat, 0.5)
	out["live.tcp.latency_p99_us"] = quantile(lat, 0.99)
	samples["live.tcp.latency_p50_us"], samples["live.tcp.latency_p99_us"] = len(lat), len(lat)

	mem := live.NewTransport(1, nil, 0)
	mem.Register(0)
	in := mem.Register(1)
	rate := throughput(mem, in, sizedReport(64), window)
	out["live.mem.msgs_per_s"] = rate
	lat = latency(mem, in, rate/2)
	mem.Close()
	out["live.mem.latency_p50_us"] = quantile(lat, 0.5)
	samples["live.mem.latency_p50_us"] = len(lat)
	return nil
}
