package live

import (
	"testing"
	"time"

	"gossipbnb/internal/nemesis"
	"gossipbnb/internal/protocol"
)

// linkNet is a transport as the link-policy cases drive it: Net plus the
// fault setter the link layer gives both transports.
type linkNet interface {
	Net
	SetNemesis(*nemesis.Schedule)
}

// linkRig counts what a case receives, so every case can close the ledger.
type linkRig struct {
	t         *testing.T
	nw        linkNet
	inboxes   []<-chan Envelope
	delivered int64
}

func (r *linkRig) register(id NodeID) <-chan Envelope {
	ch := r.nw.Register(id)
	r.inboxes = append(r.inboxes, ch)
	return ch
}

// recv takes one delivery off ch, failing the test if none comes.
func (r *linkRig) recv(ch <-chan Envelope) Envelope {
	r.t.Helper()
	select {
	case env := <-ch:
		r.delivered++
		return env
	case <-time.After(2 * time.Second):
		r.t.Fatal("no delivery")
		return Envelope{}
	}
}

// silent fails the test if anything arrives on ch within d.
func (r *linkRig) silent(ch <-chan Envelope, d time.Duration) {
	r.t.Helper()
	select {
	case env := <-ch:
		r.delivered++
		r.t.Fatalf("delivered %T, want silence", env.Msg)
	case <-time.After(d):
	}
}

// settle asserts the two ledger identities: the drop causes partition
// Dropped, and — once nothing is in flight any more — every copy that was
// sent or injected either arrived or was counted dropped.
func (r *linkRig) settle() {
	r.t.Helper()
	var ns nemesis.NetStats
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		for _, ch := range r.inboxes {
			for len(ch) > 0 {
				<-ch
				r.delivered++
			}
		}
		ns = r.nw.NetStats()
		if ns.Sent+ns.Duplicated+ns.Replayed == r.delivered+ns.Dropped || time.Now().After(deadline) {
			break
		}
	}
	if causes := ns.Lost + ns.Cut + ns.Suspect + ns.Corrupt + ns.ToDead + ns.Congested + ns.Unrouted + ns.Closed; ns.Dropped != causes {
		r.t.Errorf("Dropped = %d but its causes sum to %d: %+v", ns.Dropped, causes, ns)
	}
	if in, out := ns.Sent+ns.Duplicated+ns.Replayed, r.delivered+ns.Dropped; in != out {
		r.t.Errorf("sent+injected = %d but delivered+dropped = %d (delivered %d): %+v", in, out, r.delivered, ns)
	}
}

// TestLinkPolicy pins the link layer's rules once, against both transports
// that embed it.
func TestLinkPolicy(t *testing.T) {
	nets := []struct {
		name string
		open func(t *testing.T) linkNet
	}{
		{"mem", func(*testing.T) linkNet { return NewTransport(1, nil, 0) }},
		{"tcp", func(t *testing.T) linkNet {
			nw, err := NewTCPNetwork(3)
			if err != nil {
				t.Fatal(err)
			}
			return nw
		}},
	}
	cases := []struct {
		name string
		run  func(t *testing.T, r *linkRig)
	}{
		// An excluded link drops protocol traffic under the Suspect cause but
		// keeps the Hello/Welcome re-announcement door open, and lifts cleanly.
		{"exclusion", func(t *testing.T, r *linkRig) {
			ch := r.register(1)
			r.nw.Exclude(0, 1, true)
			r.nw.Send(0, 1, protocol.WorkDeny{})
			r.nw.Send(0, 1, protocol.Hello{ID: 0})
			r.nw.Send(0, 1, protocol.Welcome{})
			for i := 0; i < 2; i++ {
				switch env := r.recv(ch); env.Msg.(type) {
				case protocol.Hello, protocol.Welcome:
				default:
					t.Errorf("suppressed link delivered %T", env.Msg)
				}
			}
			if ns := r.nw.NetStats(); ns.Sent != 3 || ns.Dropped != 1 || ns.Suspect != 1 {
				t.Errorf("stats = %+v, want 3 sent, 1 suspect-dropped", ns)
			}
			r.nw.Exclude(0, 1, false)
			r.nw.Send(0, 1, protocol.WorkDeny{})
			if _, ok := r.recv(ch).Msg.(protocol.WorkDeny); !ok {
				t.Error("restored link delivered something else")
			}
		}},
		{"nemesis-cut", func(t *testing.T, r *linkRig) {
			ch := r.register(1)
			r.nw.SetNemesis(nemesis.New(nemesis.Fault{Kind: nemesis.Partition, End: time.Hour, A: []int{0}}))
			r.nw.Send(0, 1, protocol.WorkDeny{})
			r.silent(ch, 50*time.Millisecond)
			if ns := r.nw.NetStats(); ns.Cut != 1 || ns.Dropped != 1 {
				t.Errorf("stats = %+v, want 1 cut", ns)
			}
		}},
		// Close stops held-back sends instead of leaking timers that fire
		// into a torn-down cluster, and counts them.
		{"close-stops-held-back", func(t *testing.T, r *linkRig) {
			ch := r.register(1)
			r.nw.SetNemesis(mustFaults(t, "slow:0-1:50ms"))
			for i := 0; i < 8; i++ {
				r.nw.Send(0, 1, protocol.WorkDeny{})
			}
			r.nw.Close() // before the delay elapses
			r.silent(ch, 120*time.Millisecond)
			if ns := r.nw.NetStats(); ns.Sent != 8 || ns.Dropped != 8 || ns.Closed != 8 {
				t.Errorf("stats = %+v after Close with 8 in flight, want 8 sent, 8 closed", ns)
			}
			// Close is idempotent and a send after Close counts nowhere.
			r.nw.Close()
			r.nw.Send(0, 1, protocol.WorkDeny{})
			if ns := r.nw.NetStats(); ns.Sent != 8 || ns.Dropped != 8 {
				t.Errorf("stats = %+v after a post-Close send, want 8 sent, 8 dropped", ns)
			}
		}},
		{"crashed-ends", func(t *testing.T, r *linkRig) {
			ch0, ch1 := r.register(0), r.register(1)
			r.nw.Crash(1)
			r.nw.Send(0, 1, protocol.WorkDeny{})
			r.nw.Send(1, 0, protocol.WorkDeny{})
			r.silent(ch1, 20*time.Millisecond)
			r.silent(ch0, 20*time.Millisecond)
			if !r.nw.Crashed(1) || r.nw.Crashed(0) {
				t.Error("crash flags wrong")
			}
			if ns := r.nw.NetStats(); ns.Sent != 0 || ns.Dropped != 0 {
				t.Errorf("stats = %+v, want nothing sent and nothing dropped", ns)
			}
		}},
		{"crash-in-flight", func(t *testing.T, r *linkRig) {
			r.register(1)
			r.nw.SetNemesis(mustFaults(t, "slow:0-1:20ms"))
			r.nw.Send(0, 1, protocol.WorkDeny{})
			r.nw.Crash(1) // receiver dies while the message is in flight
			r.settle()    // waits for the drop, and would count a delivery
			if ns := r.nw.NetStats(); ns.ToDead != 1 || ns.Dropped != 1 {
				t.Errorf("stats = %+v after crash-at-delivery, want 1 to-dead", ns)
			}
		}},
		// A send held back across the crash+restart window was addressed to
		// the old boot: the rebooted node does not receive it.
		{"restart-in-flight", func(t *testing.T, r *linkRig) {
			r.register(1)
			r.nw.SetNemesis(mustFaults(t, "slow:0-1:50ms"))
			r.nw.Send(0, 1, protocol.WorkDeny{})
			r.nw.Crash(1)
			fresh := r.nw.Restart(1)
			r.inboxes = append(r.inboxes, fresh)
			r.silent(fresh, 150*time.Millisecond)
			if ns := r.nw.NetStats(); ns.ToDead != 1 || ns.Dropped != 1 {
				t.Errorf("stats = %+v, want the in-flight message to-dead", ns)
			}
		}},
		// Embedding puts SetNemesis on TCPNetwork too; its copies are frames.
		{"chaos-duplicates", func(t *testing.T, r *linkRig) {
			ch := r.register(1)
			r.nw.SetNemesis(mustFaults(t, "dup:1"))
			const n = 20
			for i := 0; i < n; i++ {
				r.nw.Send(0, 1, protocol.WorkDeny{})
			}
			for i := 0; i < 2*n; i++ {
				r.recv(ch)
			}
			if ns := r.nw.NetStats(); ns.Duplicated != n {
				t.Errorf("duplicated = %d, want %d", ns.Duplicated, n)
			}
		}},
	}
	for _, nt := range nets {
		for _, c := range cases {
			t.Run(nt.name+"/"+c.name, func(t *testing.T) {
				r := &linkRig{t: t, nw: nt.open(t)}
				defer r.nw.Close()
				c.run(t, r)
				r.settle()
			})
		}
	}
}
