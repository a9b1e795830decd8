package nemesis

// MsgKinds bounds the dense per-kind accounting arrays. Message kinds are
// small dense bytes (the protocol codec's kind space); bucket 0 collects
// messages that expose no kind or one outside the dense range.
const MsgKinds = 16

// KindOf resolves a message's accounting bucket: its Kind() byte when it has
// one below MsgKinds, else 0. Canonical protocol messages have one;
// membership and test messages need not.
func KindOf(msg any) byte {
	if km, ok := msg.(interface{ Kind() byte }); ok {
		if k := km.Kind(); int(k) < MsgKinds {
			return k
		}
	}
	return 0
}

// NetStats is the traffic ledger of a transport, the one both runtimes
// keep, so figures compare them column for column. A message is counted
// Sent before any drop cause can claim it; each copy that vanishes is
// counted under exactly one cause, and Dropped is their sum. Once nothing is
// in flight, Sent + Duplicated + Replayed = Delivered + Dropped.
type NetStats struct {
	Sent  int64 // messages handed to the network
	Bytes int64 // payload bytes of sent messages
	// Delivered counts copies handed to a receiver: a simulator handler or
	// a live node's inbox.
	Delivered int64
	Dropped   int64

	// Why dropped messages vanished:
	Lost      int64 // injected loss: a nemesis loss fault or a live transport's rate
	Cut       int64 // severed by a nemesis fault (partition, oneway, flap, stall)
	Suspect   int64 // suppressed: destination excluded by a live failure detector
	Corrupt   int64 // destroyed in transit; on TCP, rejected by the frame CRC
	ToDead    int64 // receiver crashed, or was replaced by a restart, while in flight
	Congested int64 // live receiver inbox overflow
	Unrouted  int64 // no handler or endpoint, no known address, or dial failed
	Closed    int64 // live transport torn down with the message in flight

	// Nemesis injections (extra or delayed deliveries, not drops):
	Duplicated int64
	Reordered  int64
	Replayed   int64

	// KindSent and KindBytes break Sent and Bytes down by KindOf.
	KindSent  [MsgKinds]int64
	KindBytes [MsgKinds]int64
}

// Send tallies n copies of a message of kind k and size sz handed to the
// network.
func (s *NetStats) Send(k byte, sz, n int64) {
	s.Sent += n
	s.Bytes += sz * n
	s.KindSent[k] += n
	s.KindBytes[k] += sz * n
}

// Drop counts one vanished copy under cause, a field of s.
func (s *NetStats) Drop(cause *int64) {
	s.Dropped++
	*cause++
}

// Add folds o into s, for a runtime that keeps one ledger per shard.
func (s *NetStats) Add(o NetStats) {
	s.Sent += o.Sent
	s.Bytes += o.Bytes
	s.Delivered += o.Delivered
	s.Dropped += o.Dropped
	s.Lost += o.Lost
	s.Cut += o.Cut
	s.Suspect += o.Suspect
	s.Corrupt += o.Corrupt
	s.ToDead += o.ToDead
	s.Congested += o.Congested
	s.Unrouted += o.Unrouted
	s.Closed += o.Closed
	s.Duplicated += o.Duplicated
	s.Reordered += o.Reordered
	s.Replayed += o.Replayed
	for k := range s.KindSent {
		s.KindSent[k] += o.KindSent[k]
		s.KindBytes[k] += o.KindBytes[k]
	}
}
