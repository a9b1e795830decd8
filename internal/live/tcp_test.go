package live

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"gossipbnb/internal/btree"
	"gossipbnb/internal/code"
	"gossipbnb/internal/protocol"
)

func TestFrameRoundTrip(t *testing.T) {
	codes := []code.Code{
		code.Root(),
		code.Root().Child(1, 0).Child(2, 1),
	}
	cases := []Message{
		protocol.Report{Codes: codes, Incumbent: 3.5, ActAge: 1},
		protocol.TableMsg{Codes: codes[1:], Incumbent: 9}, // a table: the root would subsume the rest
		protocol.WorkRequest{Incumbent: math.Inf(1)},
		protocol.WorkGrant{Codes: codes[1:], Incumbent: -2},
		protocol.WorkDeny{Incumbent: 0, ActAge: 4},
	}
	for _, msg := range cases {
		frame, err := appendFrame(nil, 7, msg)
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		env, err := readFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("%T: read: %v", msg, err)
		}
		if env.From != 7 {
			t.Errorf("%T: From = %d", msg, env.From)
		}
		switch want := msg.(type) {
		case protocol.Report:
			got := env.Msg.(protocol.Report)
			if got.Incumbent != want.Incumbent || got.ActAge != want.ActAge || len(got.Codes) != len(want.Codes) {
				t.Errorf("report mismatch: %+v vs %+v", got, want)
			}
			for i := range want.Codes {
				if !got.Codes[i].Equal(want.Codes[i]) {
					t.Errorf("report code %d mismatch", i)
				}
			}
		case protocol.TableMsg:
			if got := env.Msg.(protocol.TableMsg); len(got.Codes) != len(want.Codes) {
				t.Error("table codes mismatch")
			}
		case protocol.WorkRequest:
			if env.Msg.(protocol.WorkRequest).Incumbent != want.Incumbent {
				t.Error("request incumbent mismatch")
			}
		case protocol.WorkGrant:
			if got := env.Msg.(protocol.WorkGrant); len(got.Codes) != len(want.Codes) {
				t.Error("grant codes mismatch")
			}
		case protocol.WorkDeny:
			got := env.Msg.(protocol.WorkDeny)
			if got.Incumbent != want.Incumbent || got.ActAge != want.ActAge {
				t.Error("deny mismatch")
			}
		}
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	if _, err := readFrame(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Zero-length frame.
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Error("zero-length frame accepted")
	}
	// Implausible length.
	if _, err := readFrame(bytes.NewReader([]byte{255, 255, 255, 255})); err == nil {
		t.Error("oversized frame accepted")
	}
	// Unknown message kind (frame layout: u32 len, uvarint from=1 byte,
	// then the codec's kind byte).
	frame, _ := appendFrame(nil, 1, protocol.WorkDeny{})
	frame[5] = 99
	if _, err := readFrame(bytes.NewReader(frame)); err == nil {
		t.Error("unknown message kind accepted")
	}
	// Trailing garbage after a valid payload.
	frame, _ = appendFrame(nil, 1, protocol.WorkDeny{})
	frame = append(frame, 0xAB)
	frame[0] += 1 // extend the declared body length over the garbage byte
	if _, err := readFrame(bytes.NewReader(frame)); err == nil {
		t.Error("trailing frame bytes accepted")
	}
	if _, err := appendFrame(nil, 1, nil); err == nil {
		t.Error("nil message marshalled")
	}
}

// TestFrameCRCRejectsEveryByteFlip fuzzes the CRC trailer: any single-byte
// damage past the length prefix — sender, payload, or the checksum itself —
// must be rejected, and always as a frame-local (recoverable) error, never
// one that would kill the connection.
func TestFrameCRCRejectsEveryByteFlip(t *testing.T) {
	frame, err := appendFrame(nil, 3, protocol.Report{
		Codes: []code.Code{code.Root(), code.Root().Child(1, 0)}, Incumbent: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; i < len(frame); i++ {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		_, err := readFrame(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
		if !errors.Is(err, errCorruptFrame) {
			t.Errorf("flip at byte %d is not frame-local: %v", i, err)
		}
	}
	// The undamaged frame still reads back, ruling out a test that passes
	// because everything is rejected.
	if _, err := readFrame(bytes.NewReader(frame)); err != nil {
		t.Fatalf("clean frame rejected: %v", err)
	}
}

func TestTCPDelivery(t *testing.T) {
	nw, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	inbox := nw.Register(1)
	nw.Send(0, 1, protocol.WorkDeny{Incumbent: 42})
	select {
	case env := <-inbox:
		if env.From != 0 {
			t.Errorf("From = %d", env.From)
		}
		if got := env.Msg.(protocol.WorkDeny).Incumbent; got != 42 {
			t.Errorf("incumbent = %g", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery over TCP")
	}
	if sent := nw.NetStats().Sent; sent != 1 {
		t.Errorf("sent = %d", sent)
	}
	if nw.Addr(0) == "" || nw.Addr(1) == "" {
		t.Error("missing listen addresses")
	}
}

func TestTCPManyMessagesOneConnection(t *testing.T) {
	nw, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	inbox := nw.Register(1)
	const n = 500
	for i := 0; i < n; i++ {
		nw.Send(0, 1, protocol.WorkRequest{Incumbent: float64(i)})
	}
	got := 0
	deadline := time.After(10 * time.Second)
	for got < n {
		select {
		case <-inbox:
			got++
		case <-deadline:
			t.Fatalf("received %d of %d", got, n)
		}
	}
}

func TestTCPCrashSilences(t *testing.T) {
	nw, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	inbox := nw.Register(1)
	nw.Crash(1)
	nw.Send(0, 1, protocol.WorkDeny{})
	select {
	case <-inbox:
		t.Error("delivered to crashed node")
	case <-time.After(100 * time.Millisecond):
	}
	if !nw.Crashed(1) {
		t.Error("Crashed(1) = false")
	}
}

func TestClusterOverTCP(t *testing.T) {
	tr := liveTree(21, 301)
	nw, err := NewTCPNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(tr, Config{
		Nodes: 4, Seed: 21, TimeScale: 0.0005,
		Network: nw,
		Timeout: 60 * time.Second,
	})
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("TCP cluster failed: %+v", res)
	}
	if res.MsgsSent == 0 {
		t.Error("no TCP traffic")
	}
}

func TestClusterOverTCPWithCrashes(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	tr := btree.Random(r, btree.RandomConfig{
		Size:         301,
		Cost:         btree.CostModel{Mean: 0.02, Sigma: 0.3},
		BoundSpread:  1,
		FeasibleProb: 0.1,
	})
	nw, err := NewTCPNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(tr, Config{
		Nodes: 3, Seed: 22, TimeScale: 0.002,
		Network:       nw,
		RecoveryQuiet: 25 * time.Millisecond,
		Timeout:       60 * time.Second,
	})
	time.AfterFunc(60*time.Millisecond, func() { cl.Crash(1) })
	time.AfterFunc(70*time.Millisecond, func() { cl.Crash(2) })
	res := cl.Run()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("TCP survivor failed: %+v", res)
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	nw, err := NewTCPNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	nw.Close()
	nw.Close() // must not panic or deadlock
	// Sends after close are silently refused.
	nw.Send(0, 0, protocol.WorkDeny{})
}

// TestTCPRestartDropsStaleConnection: a connection the node accepted before
// it crashed belongs to the old boot. A frame arriving on it afterwards must
// not reach the rebooted node's fresh inbox — the rule
// TestTransportRestartDropsInFlight pins for the in-memory transport.
func TestTCPRestartDropsStaleConnection(t *testing.T) {
	nw, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	conn, err := net.Dial("tcp", nw.Addr(1))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(20 * time.Millisecond) // let the old boot's listener accept it
	nw.Crash(1)
	fresh := nw.Restart(1)
	frame, err := appendFrame(nil, 0, protocol.WorkDeny{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-fresh:
		t.Fatalf("pre-crash connection fed the rebooted node: %+v", env)
	case <-time.After(200 * time.Millisecond):
	}
	if ns := nw.NetStats(); ns.ToDead != 1 {
		t.Errorf("stats = %+v, want the stale frame counted to-dead", ns)
	}
}

// TestTCPRegisterBeyondBootSet: registering an id the constructor did not
// bring up must yield a reachable endpoint, not a nil inbox — a cluster wider
// than its network would otherwise run deaf nodes in silence.
func TestTCPRegisterBeyondBootSet(t *testing.T) {
	nw, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	inbox := nw.Register(3)
	if inbox == nil {
		t.Fatal("Register(3) returned a nil inbox")
	}
	if nw.Addr(3) == "" {
		t.Fatal("node 3 has no address")
	}
	nw.Send(0, 3, protocol.WorkDeny{Incumbent: 5})
	select {
	case env := <-inbox:
		if env.From != 0 || env.Msg.(protocol.WorkDeny).Incumbent != 5 {
			t.Errorf("wrong delivery: %+v", env)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery to the late-registered node")
	}
}
