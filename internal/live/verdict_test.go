package live

import (
	"math"
	"testing"
	"time"

	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/protocol"
	"gossipbnb/internal/sim"
)

// fate is what a runtime did with one message: cut, or delivered after an
// added delay.
type fate struct {
	cut   bool
	delay time.Duration
}

// simFate sends one message from → to at virtual instant t over a
// zero-latency simulated network judged by sched.
func simFate(sched *nemesis.Schedule, from, to int, t float64) fate {
	k := sim.New(1)
	nw := sim.NewNetwork(k, nil)
	nw.SetNemesis(sched)
	arrived := -1.0
	nw.Register(sim.NodeID(to), func(sim.NodeID, sim.Message) { arrived = k.Now() })
	k.At(t, func() { nw.Send(sim.NodeID(from), sim.NodeID(to), protocol.WorkDeny{}) })
	k.Run(math.Inf(1))
	if nw.Stats().Cut == 1 {
		return fate{cut: true}
	}
	return fate{delay: time.Duration(math.Round((arrived - t) * float64(time.Second)))}
}

// liveFate sends one message from → to over a delay-free in-memory
// transport, its schedule's origin moved so the send lands at into it. A
// message with no added delay is in the inbox when Send returns. A held one
// counts as delayed by want when it arrives no sooner than want and less
// than a second later — timers never fire early but may fire late — and by
// its measured delay otherwise.
func liveFate(t *testing.T, tr *Transport, inboxes []<-chan Envelope, from, to int, at, want time.Duration) fate {
	t.Helper()
	cut := tr.NetStats().Cut
	tr.mu.Lock()
	tr.origin = time.Now().Add(-at)
	tr.mu.Unlock()
	start := time.Now()
	tr.Send(NodeID(from), NodeID(to), protocol.WorkDeny{})
	select {
	case <-inboxes[to]:
		return fate{}
	default:
	}
	if tr.NetStats().Cut != cut {
		return fate{cut: true}
	}
	select {
	case <-inboxes[to]:
		if took := time.Since(start); took < want || took > want+time.Second {
			return fate{delay: took}
		}
		return fate{delay: want}
	case <-time.After(5 * time.Second):
		t.Fatalf("%d→%d at %v: neither delivered nor cut", from, to, at)
		return fate{}
	}
}

// TestNemesisSameVerdictBothRuntimes: one scenario, judged by the simulator
// in virtual time and by the live link in wall-clock time, cuts or delivers
// every message at every (t, src, dst) alike and adds the same delay.
func TestNemesisSameVerdictBothRuntimes(t *testing.T) {
	specs := []string{
		"partition:1-2:0,1|2,3",
		"oneway:3-4:0|1",
		"stall:1,2:5-6",
		"flap:0-3:1:7-9",
		"slow:1-3:20ms:0-10",
	}
	fs, err := nemesis.ParseAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	sched := nemesis.New(fs...)
	const nodes = 4
	tr := NewTransport(1, nil, 0)
	defer tr.Close()
	tr.SetNemesis(sched)
	inboxes := make([]<-chan Envelope, nodes)
	for id := range inboxes {
		inboxes[id] = tr.Register(NodeID(id))
	}
	// Instants a quarter period or more away from every window edge and
	// flap phase change, so wall-clock jitter cannot cross one.
	instants := []float64{0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.25, 7.75, 8.25, 8.75, 9.5, 10.5}
	cuts, delays := 0, 0
	for _, sec := range instants {
		for from := 0; from < nodes; from++ {
			for to := 0; to < nodes; to++ {
				if from == to {
					continue
				}
				s := simFate(sched, from, to, sec)
				l := liveFate(t, tr, inboxes, from, to, time.Duration(sec*float64(time.Second)), s.delay)
				if s != l {
					t.Errorf("t=%gs %d→%d: simulator %+v, live %+v", sec, from, to, s, l)
				}
				if s.cut {
					cuts++
				} else if s.delay > 0 {
					delays++
				}
			}
		}
	}
	if cuts == 0 || delays == 0 {
		t.Errorf("scenario judged %d cuts and %d delays; want both", cuts, delays)
	}
}

// TestNemesisCorruptOneDamagedCopy: under corrupt:1 and dup:1 a message is
// one damaged copy on both live transports, never delivered and never
// duplicated, and the ledger is the simulator's for the same send.
func TestNemesisCorruptOneDamagedCopy(t *testing.T) {
	sched := mustFaults(t, "corrupt:1", "dup:1")
	k := sim.New(1)
	snw := sim.NewNetwork(k, nil)
	snw.SetNemesis(sched)
	snw.Register(1, func(sim.NodeID, sim.Message) {})
	snw.Send(0, 1, protocol.WorkDeny{})
	k.Run(math.Inf(1))
	want := snw.Stats()
	if want.Corrupt != 1 || want.Duplicated != 0 || want.Delivered != 0 {
		t.Fatalf("simulator ledger %+v, want one corrupt message and no duplicate", want)
	}
	for _, nt := range linkNets {
		t.Run(nt.name, func(t *testing.T) {
			r := &linkRig{t: t, nw: nt.open(t)}
			defer r.nw.Close()
			ch := r.register(1)
			r.nw.SetNemesis(sched)
			r.nw.Send(0, 1, protocol.WorkDeny{})
			r.settle()
			r.silent(ch, 20*time.Millisecond)
			if got := r.nw.NetStats(); got != want {
				t.Errorf("ledger %+v, want the simulator's %+v", got, want)
			}
		})
	}
}

// TestNemesisSharedSchedule: one schedule serves two transports, each
// judging its windows from its own SetNemesis. A partition of node 0 over
// the first quarter second cuts the second transport's first send, though
// the first transport started the same schedule longer ago than that, and
// its own window has passed.
func TestNemesisSharedSchedule(t *testing.T) {
	sched := mustFaults(t, "partition:0-250ms:0")
	first := NewTransport(1, nil, 0)
	defer first.Close()
	ch1 := first.Register(1)
	first.SetNemesis(sched)
	first.Send(0, 1, protocol.WorkDeny{})
	if ns := first.NetStats(); ns.Cut != 1 {
		t.Fatalf("first transport inside the window: %+v, want the send cut", ns)
	}
	time.Sleep(350 * time.Millisecond)

	second := NewTransport(2, nil, 0)
	defer second.Close()
	ch2 := second.Register(1)
	second.SetNemesis(sched)
	second.Send(0, 1, protocol.WorkDeny{})
	if ns := second.NetStats(); ns.Cut != 1 || len(ch2) != 0 {
		t.Errorf("second transport inside its window: %+v, want the send cut", ns)
	}
	first.Send(0, 1, protocol.WorkDeny{})
	if ns := first.NetStats(); ns.Cut != 1 || len(ch1) != 1 {
		t.Errorf("first transport past its window: %+v, %d delivered; want the send through", ns, len(ch1))
	}
}

// TestLinkSendAllocs: a send the schedule judges and leaves undelayed
// allocates nothing on the in-memory transport.
func TestLinkSendAllocs(t *testing.T) {
	tr := NewTransport(1, nil, 0)
	defer tr.Close()
	ch := tr.Register(1)
	tr.SetNemesis(mustFaults(t, "partition:0-:2|3", "slow:2-3:50ms", "dup:0"))
	var msg Message = protocol.WorkDeny{}
	if a := testing.AllocsPerRun(100, func() {
		tr.Send(0, 1, msg)
		<-ch
	}); a != 0 {
		t.Errorf("a judged, undelayed send allocates %v times, want 0", a)
	}
	if ns := tr.NetStats(); ns.Delivered != 101 || ns.Dropped != 0 {
		t.Errorf("ledger %+v, want 101 delivered", ns)
	}
}
