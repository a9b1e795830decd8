package live

import (
	"testing"

	"gossipbnb/internal/protocol"
)

// Regression tests for the loss accounting only the in-memory hand-off can
// show: a message that vanishes for want of an endpoint or of inbox room
// must show up in NetStats' Dropped column. (Crash at delivery time and
// teardown mid-flight are TestLinkPolicy cases, run on both transports.)

func TestTransportUnregisteredCountsDropped(t *testing.T) {
	tr := NewTransport(1, nil, 0)
	defer tr.Close()
	tr.Send(0, 1, protocol.WorkDeny{}) // node 1 never registered
	if ns := tr.NetStats(); ns.Sent != 1 || ns.Dropped != 1 || ns.Unrouted != 1 {
		t.Fatalf("stats = %+v after a send to an unregistered node, want 1 sent, 1 unrouted", ns)
	}
}

func TestTransportOverflowCountsDropped(t *testing.T) {
	tr := NewTransport(1, nil, 0)
	defer tr.Close()
	tr.Register(1) // nobody drains the inbox
	const extra = 10
	for i := 0; i < inboxCap+extra; i++ {
		tr.Send(0, 1, protocol.WorkDeny{})
	}
	ns := tr.NetStats()
	if ns.Sent != inboxCap+extra {
		t.Fatalf("sent=%d, want %d", ns.Sent, inboxCap+extra)
	}
	if ns.Dropped != extra || ns.Congested != extra {
		t.Fatalf("stats = %+v, want %d overflow messages dropped as congested", ns, extra)
	}
}
