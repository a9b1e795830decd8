package live

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"gossipbnb/internal/protocol"
)

// addAfter grows the running cluster by count joiners once the solve is
// underway, reporting their identities back on a channel.
func addAfter(t *testing.T, cl *Cluster, delay time.Duration, count int) <-chan NodeID {
	t.Helper()
	ids := make(chan NodeID, count)
	time.AfterFunc(delay, func() {
		for i := 0; i < count; i++ {
			id, err := cl.AddNode()
			if err != nil {
				t.Errorf("AddNode: %v", err)
				return
			}
			ids <- id
		}
	})
	return ids
}

// TestJoinDoublesLiveCluster is the live half of the headline scenario: a
// 2-node cluster doubles to 4 mid-solve via the join path. The joiners are
// absorbed into every peer view, bootstrap their tables, steal real work,
// and the run still terminates on the exact sequential optimum.
func TestJoinDoublesLiveCluster(t *testing.T) {
	tr := liveTree(40, 2001)
	cl := NewCluster(tr, Config{Nodes: 2, Seed: 40, TimeScale: 0.002})
	addAfter(t, cl, 10*time.Millisecond, 2)
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("churned run did not finish correctly: %+v", res)
	}
	if len(cl.nodes) != 4 {
		t.Fatalf("cluster has %d nodes, want 4", len(cl.nodes))
	}
	joinerWork := int64(0)
	for _, n := range cl.nodes[2:] {
		joinerWork += n.expanded.Load()
	}
	if joinerWork == 0 {
		t.Error("joiners expanded nothing — they never stole work")
	}
	// The Hello round converged every view onto the full 4-member pool.
	for _, n := range cl.nodes {
		if got := len(cl.PeerView(n.id)); got != 3 {
			t.Errorf("node %d view has %d peers, want 3", n.id, got)
		}
	}
	// Detection is off, so every heartbeat is the answer to a Hello.
	if res.Kinds.Sent[protocol.KindHello] == 0 || res.Kinds.Sent[protocol.KindHeartbeat] == 0 {
		t.Error("no join traffic recorded")
	}
}

// joinLog records every Hello and every heartbeat table the network carries,
// with its send time since start.
type joinLog struct {
	Net
	start time.Time

	mu     sync.Mutex
	hellos []joinSend
	beats  []joinSend
}

type joinSend struct {
	from, to, id NodeID // id: the Hello's announcer
	at           time.Duration
}

func (w *joinLog) Send(from, to NodeID, msg Message) {
	s := joinSend{from: from, to: to, at: time.Since(w.start)}
	w.mu.Lock()
	switch m := msg.(type) {
	case protocol.Hello:
		s.id = NodeID(m.ID)
		w.hellos = append(w.hellos, s)
	case protocol.Heartbeat:
		w.beats = append(w.beats, s)
	}
	w.mu.Unlock()
	w.Net.Send(from, to, msg)
}

// TestJoinTrafficOneHelloRound: a join costs one Hello round. The joiner
// announces itself to its contact until its first heartbeat arrives; the
// contact answers each of those Hellos with one heartbeat table and forwards
// the first, once, to the rest of its view; nobody forwards or answers a
// forwarded Hello. Every view still ends whole. With detection on, members'
// heartbeat rounds start one period (SuspectAfter/3) after the cluster is
// built, so every heartbeat sent before then is an answer; the cluster
// lingers through two rounds after it.
func TestJoinTrafficOneHelloRound(t *testing.T) {
	for _, nodes := range []int{4, 8, 16} {
		for _, suspect := range []time.Duration{0, 600 * time.Millisecond} {
			t.Run(fmt.Sprintf("%d-nodes/suspect-%v", nodes, suspect), func(t *testing.T) {
				w := &joinLog{Net: NewTransport(int64(nodes), nil, 0), start: time.Now()}
				cl := NewCluster(liveTree(int64(nodes), 301), Config{
					Nodes: nodes, Seed: int64(nodes), TimeScale: 0.002, Network: w,
					SuspectAfter: suspect, Linger: 100*time.Millisecond + 2*suspect/3,
				})
				addAfter(t, cl, 5*time.Millisecond, 1)
				res := cl.Run()
				if !res.Terminated || !res.OptimumOK {
					t.Fatalf("run did not finish correctly: %+v", res)
				}
				if len(cl.nodes) != nodes+1 {
					t.Fatalf("cluster has %d nodes, want %d", len(cl.nodes), nodes+1)
				}
				joiner, contact := NodeID(nodes), NodeID(0)
				cutoff := time.Duration(1<<63 - 1)
				if suspect > 0 {
					cutoff = suspect / 3
				}
				w.mu.Lock()
				defer w.mu.Unlock()
				announces, forwards := 0, 0
				for _, h := range w.hellos {
					switch {
					case h.id != joiner:
						t.Errorf("Hello announcing %d from %d: only the joiner announces", h.id, h.from)
					case h.from == joiner:
						if h.to != contact {
							t.Errorf("the joiner announced itself to %d, not its contact", h.to)
						}
						if h.at > cutoff-cutoff/4 {
							t.Fatalf("the joiner still announced at %v, too close to the first heartbeat round at %v", h.at, cutoff)
						}
						announces++
					case h.from == contact && h.to != joiner:
						forwards++
					default:
						t.Errorf("Hello %d→%d announcing the joiner: a forwarded Hello was forwarded again", h.from, h.to)
					}
				}
				answers, rounds := 0, 0
				for _, b := range w.beats {
					switch {
					case b.at >= cutoff:
						rounds++
					case b.from != contact || b.to != joiner:
						t.Errorf("heartbeat %d→%d at %v: only the contact answers, and only the joiner", b.from, b.to, b.at)
					default:
						answers++
					}
				}
				if announces == 0 {
					t.Fatal("the joiner never announced itself")
				}
				if forwards > nodes-1 {
					t.Errorf("the contact forwarded the Hello %d times, want at most %d", forwards, nodes-1)
				}
				if sent := int(res.Net.KindSent[protocol.KindHello]); sent != announces+forwards {
					t.Errorf("%d Hellos sent, want %d announces + %d forwards", sent, announces, forwards)
				}
				if answers != announces {
					t.Errorf("%d heartbeat answers to %d Hellos from the joiner, want one each", answers, announces)
				}
				if suspect > 0 && rounds == 0 {
					t.Error("no heartbeat round ran")
				}
				for _, n := range cl.nodes {
					if got := len(cl.PeerView(n.id)); got != nodes {
						t.Errorf("node %d view has %d peers, want %d", n.id, got, nodes)
					}
				}
				t.Logf("%d announces, %d forwards, %d answers, %d round heartbeats", announces, forwards, answers, rounds)
			})
		}
	}
}

// TestJoinUnderLoss: the join handshake itself is unreliable traffic — the
// Hello or its answer can be dropped — so the joiner re-announces until it
// is absorbed, and the run still converges.
func TestJoinUnderLoss(t *testing.T) {
	tr := liveTree(41, 1001)
	cl := NewCluster(tr, Config{
		Nodes: 2, Seed: 41, TimeScale: 0.002,
		Nemesis:       mustFaults(t, "loss:0.25"),
		RecoveryQuiet: 30 * time.Millisecond,
	})
	addAfter(t, cl, 8*time.Millisecond, 2)
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("lossy churned run did not finish correctly: %+v", res)
	}
	if len(cl.nodes) != 4 {
		t.Fatalf("cluster has %d nodes, want 4", len(cl.nodes))
	}
}

// TestJoinTCPCluster runs the same doubling over real sockets: the joiners
// come up on fresh listeners nobody knew at boot, and peers dial them on
// demand.
func TestJoinTCPCluster(t *testing.T) {
	nw, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	tr := liveTree(42, 2001)
	cl := NewCluster(tr, Config{Nodes: 2, Seed: 42, TimeScale: 0.002, Network: nw})
	addAfter(t, cl, 10*time.Millisecond, 2)
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("TCP churned run did not finish correctly: %+v", res)
	}
	joinerWork := int64(0)
	for _, n := range cl.nodes[2:] {
		joinerWork += n.expanded.Load()
	}
	if joinerWork == 0 {
		t.Error("TCP joiners expanded nothing")
	}
	for _, n := range cl.nodes {
		if got := len(cl.PeerView(n.id)); got != 3 {
			t.Errorf("node %d view has %d peers, want 3", n.id, got)
		}
	}
}

// TestJoinCrashRestartMix: a joiner is a full citizen — it can crash and
// restart under its old identity like any boot-time member, and the cluster
// still finishes on the right optimum.
func TestJoinCrashRestartMix(t *testing.T) {
	tr := liveTree(43, 2001)
	cl := NewCluster(tr, Config{
		Nodes: 2, Seed: 43, TimeScale: 0.002,
		RecoveryQuiet: 30 * time.Millisecond,
	})
	ids := addAfter(t, cl, 8*time.Millisecond, 2)
	time.AfterFunc(25*time.Millisecond, func() {
		select {
		case id := <-ids:
			cl.Crash(id)
			time.AfterFunc(15*time.Millisecond, func() { cl.Restart(id) })
		default:
		}
	})
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("join+crash+restart run did not finish correctly: %+v", res)
	}
}

// TestAddNodeRefusedOffline: AddNode only works on a running cluster.
func TestAddNodeRefusedOffline(t *testing.T) {
	cl := NewCluster(liveTree(44, 101), Config{Nodes: 1, Seed: 44})
	if _, err := cl.AddNode(); err == nil {
		t.Error("AddNode before Run accepted")
	}
	res := cl.Run()
	if !res.Terminated {
		t.Fatalf("%+v", res)
	}
	if _, err := cl.AddNode(); err == nil {
		t.Error("AddNode after Run accepted")
	}
}

// TestForeignIDsRejected: an id that names no node of the cluster — beyond
// it, negative, or the next one AddNode would hand out — is refused as a
// contact, and Crash, Restart and PeerView leave every node alone for it.
func TestForeignIDsRejected(t *testing.T) {
	cl := NewCluster(liveTree(45, 301), Config{Nodes: 2, Seed: 45, TimeScale: 0.002, Linger: 50 * time.Millisecond})
	var res Result
	done := make(chan struct{})
	go func() { res = cl.Run(); close(done) }()
	for running := false; !running; time.Sleep(time.Millisecond) {
		cl.stopMu.Lock()
		running = cl.started
		cl.stopMu.Unlock()
	}
	for _, c := range []struct {
		name string
		id   NodeID
	}{
		{"beyond the cluster", 99},
		{"negative", -3},
		{"the next free id", 2},
	} {
		if _, err := cl.AddNode(c.id); err == nil {
			t.Errorf("%s: AddNode(%d) accepted", c.name, c.id)
		}
		cl.Crash(c.id)
		cl.Restart(c.id)
		if v := cl.PeerView(c.id); v != nil {
			t.Errorf("%s: PeerView(%d) = %v", c.name, c.id, v)
		}
	}
	<-done
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("run did not finish correctly: %+v", res)
	}
	if len(cl.nodes) != 2 {
		t.Errorf("cluster has %d nodes, want 2", len(cl.nodes))
	}
	if v := cl.PeerView(-3); v != nil {
		t.Errorf("PeerView(-3) after the run = %v", v)
	}
	for id := range NodeID(2) {
		if v := cl.PeerView(id); len(v) != 1 {
			t.Errorf("node %d view after the run = %v, want the other node", id, v)
		}
	}
}

// TestTCPDialBackoff is the regression test for dial pacing: a node sending
// to a peer whose listener is not up yet — a joiner announcing before its
// contact listens, a machine mid-reboot — must trickle bounded reconnect
// attempts instead of hot-looping one TCP connect per message, and must
// eventually connect once the peer comes up.
func TestTCPDialBackoff(t *testing.T) {
	nw, err := NewTCPNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	// Reserve an address, then release it: node 1's recorded address points
	// at a port nobody listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	nw.mu.Lock()
	nw.addrs[1] = ln.Addr().String()
	nw.mu.Unlock()

	const sends = 400
	for i := 0; i < sends; i++ {
		nw.Send(0, 1, protocol.WorkRequest{})
		time.Sleep(250 * time.Microsecond) // ≥100 ms of real time across the loop
	}
	attempts := nw.DialStats()
	if attempts == 0 {
		t.Fatal("no dial ever attempted")
	}
	// The exponential schedule allows ~log2(cap/base) warm-up dials plus one
	// per capped window; even on a slow machine that is a few dozen, never
	// one per send.
	if attempts > 40 {
		t.Errorf("%d dial attempts for %d sends — backoff is not suppressing the hot loop", attempts, sends)
	}

	// The peer comes up (on a fresh port — its own listener address
	// supersedes the stale one) and the very same send path must
	// now get through, within the bounded backoff window.
	inbox := nw.Add(1)
	timeout := time.After(5 * time.Second)
	for {
		nw.Send(0, 1, protocol.WorkDeny{})
		select {
		case env := <-inbox:
			if env.From != 0 {
				t.Fatalf("From = %d", env.From)
			}
			return
		case <-timeout:
			t.Fatal("sender never connected after the peer started listening")
		case <-time.After(time.Millisecond):
		}
	}
}
