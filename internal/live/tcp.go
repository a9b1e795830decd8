package live

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"gossipbnb/internal/protocol"
)

var _ Net = (*TCPNetwork)(nil)

// TCPNetwork runs the live protocol over real TCP sockets on the loopback
// interface: the link policy over one listener per node, lazily dialed
// connections, and a length-prefixed binary wire format. It is the closest
// in-process stand-in for the paper's "collection of Internet-connected
// computers". The maps below are guarded by the link's mutex.
type TCPNetwork struct {
	link
	addrs   map[NodeID]string
	lns     map[NodeID]net.Listener
	conns   map[[2]NodeID]*tcpConn  // (from, to) -> outbound connection
	backoff map[NodeID]*dialBackoff // per destination: failed-dial suppression
	dials   int64
	wg      sync.WaitGroup
}

// dialBackoff is bounded jittered exponential backoff toward one destination:
// after a failed dial, further dials to it are suppressed until nextTry, with
// the window doubling up to dialBackoffCap; a successful dial resets it. It
// keeps a sender whose peer is not yet listening — a joiner announcing before
// its contact's listener is up, or a crashed machine mid-reboot — from
// hot-looping connect attempts at send rate.
type dialBackoff struct {
	delay   time.Duration
	nextTry time.Time
}

const (
	dialBackoffBase = time.Millisecond
	dialBackoffCap  = 200 * time.Millisecond
)

type tcpConn struct {
	mu  sync.Mutex
	c   net.Conn
	buf []byte // frame scratch, reused under mu so sends stop allocating
}

// NewTCPNetwork creates listeners for node IDs 0..n-1 on 127.0.0.1 and
// starts their accept loops.
func NewTCPNetwork(n int) (*TCPNetwork, error) {
	t := &TCPNetwork{
		addrs:   map[NodeID]string{},
		lns:     map[NodeID]net.Listener{},
		conns:   map[[2]NodeID]*tcpConn{},
		backoff: map[NodeID]*dialBackoff{},
	}
	t.init(rand.Int63(), nil, 0, t.sendFrame) // unseeded draws, no delay function, no loss: the sockets bring their own
	for i := 0; i < n; i++ {
		if _, err := t.listen(NodeID(i), ""); err != nil {
			t.Close()
			return nil, fmt.Errorf("live: listen for node %d: %w", i, err)
		}
	}
	return t, nil
}

// listen boots id: a fresh endpoint from the link, a listener on addr — or on
// a fresh loopback port when addr is empty or was claimed meanwhile — and the
// accept loop that feeds that endpoint and no later one. It returns a nil
// inbox once the network is closed; with an error the inbox is live but has
// no listener, so the node can send but never receive.
func (t *TCPNetwork) listen(id NodeID, addr string) (chan Envelope, error) {
	ep := t.open(id)
	if ep == nil {
		return nil, net.ErrClosed
	}
	ln, err := net.Listen("tcp", cmp.Or(addr, "127.0.0.1:0"))
	if err != nil && addr != "" {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return ep, err
	}
	t.mu.Lock()
	if t.closed || t.crashed[id] {
		t.mu.Unlock()
		ln.Close()
		return ep, nil
	}
	t.lns[id] = ln
	t.addrs[id] = ln.Addr().String()
	t.wg.Add(1)
	t.mu.Unlock()
	go t.acceptLoop(id, ep, ln)
	return ep, nil
}

// Addr returns the listen address of a node, for tests and tooling.
func (t *TCPNetwork) Addr(id NodeID) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addrs[id]
}

// Register implements Net. Boot-set endpoints were brought up at
// construction and it just hands out their inbox; an id beyond them is
// brought up now, like Add, so a cluster wider than its network still gets
// nodes that can be reached.
func (t *TCPNetwork) Register(id NodeID) <-chan Envelope {
	t.mu.Lock()
	ep := t.inboxes[id]
	t.mu.Unlock()
	if ep != nil {
		return ep
	}
	return t.Add(id)
}

// Add implements Net: a brand-new node joins mid-run — a fresh listener on a
// fresh loopback port, a fresh inbox. The network is one object shared by
// every node, so its address is known to all of them before any of them
// hears of the node, and peers dial it on demand.
func (t *TCPNetwork) Add(id NodeID) <-chan Envelope {
	ep, _ := t.listen(id, "")
	return ep
}

// Restart implements Net: the crashed node reboots under its old identity —
// a fresh listener on its recorded address, a fresh empty inbox. Peers
// whose connections died with the crash re-dial lazily on their next send,
// exactly like clients reconnecting to a rebooted machine. If the old port
// was claimed meanwhile, the node comes back on a new one.
func (t *TCPNetwork) Restart(id NodeID) <-chan Envelope {
	ep, _ := t.listen(id, t.Addr(id))
	return ep
}

// Crash implements Net: the node's listener and connections close, so
// in-flight and future traffic to it is dropped by the kernel, exactly like
// a machine halting.
func (t *TCPNetwork) Crash(id NodeID) {
	t.link.Crash(id) // first: from here on sendFrame publishes no connection to id
	t.mu.Lock()
	ln := t.lns[id]
	var victims []*tcpConn
	for key, c := range t.conns {
		if key[0] == id || key[1] == id {
			victims = append(victims, c)
			delete(t.conns, key)
		}
	}
	t.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range victims {
		c.c.Close()
	}
}

// Close implements Net: closes the link, shuts every listener and connection
// down and waits for reader goroutines to drain.
func (t *TCPNetwork) Close() {
	t.link.Close() // first: from here on listen and sendFrame publish nothing
	t.mu.Lock()
	lns := t.lns
	conns := t.conns
	t.lns, t.conns = map[NodeID]net.Listener{}, map[[2]NodeID]*tcpConn{}
	t.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.c.Close()
	}
	t.wg.Wait()
}

// acceptLoop serves one boot of a node: each connection its listener accepts
// feeds that boot's endpoint until it drops.
func (t *TCPNetwork) acceptLoop(id NodeID, ep chan Envelope, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (crash or shutdown)
		}
		t.wg.Add(1)
		go t.readLoop(id, ep, conn)
	}
}

// readLoop decodes frames from one inbound connection into the endpoint its
// listener was serving. A frame that fails its CRC (or decodes to garbage
// despite passing it) is counted and skipped — the stream stays synchronized
// via the length prefix, so one bad frame must not kill the connection. Only
// stream-level failures (EOF, a corrupt length prefix) and the death of the
// endpoint — a connection accepted before a crash must not feed the rebooted
// node — end the loop.
func (t *TCPNetwork) readLoop(to NodeID, ep chan Envelope, conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	var scratch []byte
	for {
		var env Envelope
		var err error
		env, scratch, err = readFrameInto(conn, scratch)
		if err != nil {
			if errors.Is(err, errCorruptFrame) {
				t.drop(&t.stats.Corrupt)
				continue
			}
			return
		}
		if !t.deliver(to, ep, env) {
			return // decoded but the receiver died
		}
	}
}

// sendFrame is the TCP delivery mechanism: marshal and write one frame,
// dialing on demand. Any error drops the message silently — the asynchronous
// model allows loss. A held-back parcel whose sender or receiver crashed, or
// whose receiver rebooted, meanwhile is not written at all. A corrupt parcel
// gets one byte of the encoded frame flipped past the length prefix, so the
// receiver stays stream-synchronized but its CRC check must reject the frame.
func (t *TCPNetwork) sendFrame(p parcel) {
	from, to := p.env.From, p.to
	t.mu.Lock()
	if t.closed || t.crashed[from] || t.crashed[to] || t.inboxes[to] != p.ep {
		t.dropLocked(&t.stats.ToDead)
		t.mu.Unlock()
		return
	}
	key := [2]NodeID{from, to}
	c := t.conns[key]
	addr := t.addrs[to]
	t.mu.Unlock()

	if c == nil {
		if addr == "" || !t.dialGate(to) {
			t.drop(&t.stats.Unrouted) // destination unknown, or inside a backoff window
			return
		}
		conn, err := net.Dial("tcp", addr)
		t.noteDialResult(to, err == nil)
		if err != nil {
			t.drop(&t.stats.Unrouted)
			return
		}
		c = &tcpConn{c: conn}
		t.mu.Lock()
		if prev := t.conns[key]; prev != nil {
			// Lost the race; use the established connection.
			t.mu.Unlock()
			conn.Close()
			c = prev
		} else if t.closed || t.crashed[to] {
			t.mu.Unlock()
			conn.Close()
			t.drop(&t.stats.ToDead)
			return
		} else {
			t.conns[key] = c
			t.mu.Unlock()
		}
	}

	c.mu.Lock()
	frame, err := appendFrame(c.buf[:0], from, p.env.Msg)
	c.buf = frame
	var werr error
	if err == nil {
		if p.corrupt && len(frame) > 4 {
			// Damage the body or trailer, never the length prefix: a wrong
			// length would desynchronize the stream, which is a connection
			// failure, not a frame failure.
			frame[4+rand.Intn(len(frame)-4)] ^= 0x40
		}
		_, werr = c.c.Write(frame)
	}
	c.mu.Unlock()
	if err != nil {
		t.drop(&t.stats.Unrouted) // unmarshalable message: nothing reached the wire
		return
	}
	if werr != nil {
		t.drop(&t.stats.ToDead)
		t.mu.Lock()
		if t.conns[key] == c {
			delete(t.conns, key)
		}
		t.mu.Unlock()
		c.c.Close()
	}
}

// dialGate reports whether a dial to `to` may proceed now, counting the
// attempt. While a backoff window is open the send is suppressed — it drops
// like any lost message, which the asynchronous model already allows.
func (t *TCPNetwork) dialGate(to NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b := t.backoff[to]; b != nil && time.Now().Before(b.nextTry) {
		return false
	}
	t.dials++
	return true
}

// noteDialResult updates the destination's backoff state: success resets it,
// failure doubles the suppression window (full jitter in [delay/2, delay], so
// concurrent senders to a down peer desynchronize) up to dialBackoffCap.
func (t *TCPNetwork) noteDialResult(to NodeID, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ok {
		delete(t.backoff, to)
		return
	}
	b := t.backoff[to]
	if b == nil {
		b = &dialBackoff{delay: dialBackoffBase}
		t.backoff[to] = b
	} else if b.delay < dialBackoffCap {
		b.delay *= 2
		if b.delay > dialBackoffCap {
			b.delay = dialBackoffCap
		}
	}
	jitter := b.delay/2 + time.Duration(rand.Int63n(int64(b.delay/2)+1))
	b.nextTry = time.Now().Add(jitter)
}

// DialStats returns how many TCP connect attempts Send made — the backoff
// regression tests pin that an unreachable peer costs a bounded trickle of
// dials, not one per message.
func (t *TCPNetwork) DialStats() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dials
}

// --- wire format ---------------------------------------------------------------
//
// frame := u32(len) body u32(crc)   (len = length of body)
// body  := uvarint(from) msg        (msg = the canonical protocol codec)
// crc   := CRC32-C over len prefix and body
//
// The message payload is encoded and decoded by internal/protocol — the one
// codec shared with every other transport — so the frame adds only what TCP
// itself needs: a length prefix for the stream, the sender identity the
// socket does not carry, and an integrity check so a damaged frame is
// rejected instead of fed to the decoder. Because the CRC trails a frame of
// known length, a body-level corruption never desynchronizes the stream:
// the reader skips the bad frame and keeps going. Only a corrupted length
// prefix — which the CRC detects but cannot repair — forces the connection
// down, and the regular dial-on-demand path then re-establishes it.

// maxFrame bounds a frame body; far above any real table push, it only
// guards against corrupt length prefixes.
const maxFrame = 16 << 20

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errCorruptFrame marks a frame-local integrity failure: the stream is still
// synchronized, so the reader may skip the frame and continue.
var errCorruptFrame = errors.New("live: corrupt frame")

// appendFrame marshals one message as a frame appended to dst, reserving the
// length prefix up front and patching it afterwards so the body is encoded
// in place — one buffer, reusable by the caller, instead of a fresh body
// allocation per send. The trailing CRC32-C covers the prefix and body.
func appendFrame(dst []byte, from NodeID, msg Message) ([]byte, error) {
	pm, ok := msg.(protocol.Msg)
	if !ok {
		return dst, fmt.Errorf("live: cannot marshal %T", msg)
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.AppendUvarint(dst, uint64(from))
	dst, err := protocol.Encode(dst, pm)
	if err != nil {
		return dst[:start], fmt.Errorf("live: %w", err)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	sum := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, sum), nil
}

// readFrame reads and unmarshals one frame.
func readFrame(r io.Reader) (Envelope, error) {
	env, _, err := readFrameInto(r, nil)
	return env, err
}

// readFrameInto is readFrame with a reusable body scratch: it returns the
// (possibly grown) scratch so a read loop keeps one buffer per connection.
// The decoded Envelope shares no storage with the scratch. Integrity
// failures confined to one frame — a CRC mismatch, or a payload that passed
// the CRC yet fails to decode — return errCorruptFrame (wrapped), leaving
// the stream positioned at the next frame.
func readFrameInto(r io.Reader, scratch []byte) (Envelope, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Envelope{}, scratch, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n == 0 || n > maxFrame {
		return Envelope{}, scratch, fmt.Errorf("live: bad frame length %d", n)
	}
	if uint32(cap(scratch)) < n+4 {
		scratch = make([]byte, n+4)
	}
	body := scratch[:n+4] // body plus the CRC trailer
	if _, err := io.ReadFull(r, body); err != nil {
		return Envelope{}, scratch, err
	}
	wantSum := binary.LittleEndian.Uint32(body[n:])
	body = body[:n]
	sum := crc32.Update(crc32.Checksum(lenBuf[:], castagnoli), castagnoli, body)
	if sum != wantSum {
		return Envelope{}, scratch, fmt.Errorf("%w: crc %#x, want %#x", errCorruptFrame, sum, wantSum)
	}
	from, k := binary.Uvarint(body)
	if k <= 0 {
		return Envelope{}, scratch, fmt.Errorf("%w: bad frame sender", errCorruptFrame)
	}
	inst, m, used, err := protocol.DecodeInstance(body[k:])
	if err != nil {
		return Envelope{}, scratch, fmt.Errorf("%w: frame payload: %v", errCorruptFrame, err)
	}
	if k+used != len(body) {
		return Envelope{}, scratch, fmt.Errorf("%w: %d trailing bytes in frame", errCorruptFrame, len(body)-k-used)
	}
	var msg Message = m
	if inst != 0 {
		msg = protocol.InstMsg{Instance: inst, Msg: m}
	}
	return Envelope{From: NodeID(from), Msg: msg}, scratch, nil
}
