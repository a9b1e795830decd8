package gossip

import (
	"math"

	"gossipbnb/internal/sim"
)

// SpreadResult reports a standalone epidemic-dissemination experiment.
type SpreadResult struct {
	Nodes      int
	Reached    int     // nodes that eventually knew the rumor
	Time       float64 // virtual time until the last infection (or give-up)
	Messages   int64   // gossip messages sent
	Bytes      int64   // gossip bytes sent
	Saturation float64 // Reached / Nodes
}

// SpreadConfig parameterizes Spread.
type SpreadConfig struct {
	Nodes   int
	Gossip  Config
	Latency sim.LatencyModel // nil = paper model
	Loss    float64
	Seed    int64
}

// Spread injects a single rumor at node 0 and runs rumor mongering until the
// system quiesces. It measures the epidemic's reach, spreading time, and
// message cost — the knobs (fanout, max sends, loss) that the paper's
// mechanisms inherit from epidemic communication.
func Spread(cfg SpreadConfig) SpreadResult {
	if cfg.Latency == nil {
		cfg.Latency = sim.PaperLatency()
	}
	k := sim.New(cfg.Seed)
	nw := sim.NewNetwork(k, cfg.Latency)
	nw.SetLoss(cfg.Loss)
	ids := make([]sim.NodeID, cfg.Nodes)
	for i := range ids {
		ids[i] = sim.NodeID(i)
	}
	agents := make([]*Agent, cfg.Nodes)
	var lastInfection float64
	for i := range ids {
		id := ids[i]
		agents[i] = NewAgent(k, nw, id, StaticView(id, ids), cfg.Gossip)
		agents[i].OnRumor = func(Rumor) { lastInfection = k.Now() }
		nw.Register(id, func(from sim.NodeID, m sim.Message) {
			agents[id].Deliver(from, m.(Message))
		})
		agents[i].Start()
	}
	agents[0].Add(Rumor{ID: "r", Data: []byte("x")})
	// Run until every rumor everywhere has cooled; the queue never fully
	// drains (rounds reschedule forever), so bound by quiescence: once no
	// agent holds a hot rumor and none caught one in the last window,
	// nothing further can change. The second half matters when rumors cool
	// in the round that closes a window (always, with MaxSends 1): their
	// last pushes are still in flight then, and whoever those infect is hot
	// only in the next window.
	for {
		start := k.Now()
		k.Run(start + 10*cfg.Gossip.Interval)
		hot := lastInfection > start
		for _, a := range agents {
			if len(a.rumors) > 0 {
				hot = true
				break
			}
		}
		if !hot {
			break
		}
		if k.Now() > 1e7 {
			break // safety valve; unreachable in practice
		}
	}
	res := SpreadResult{Nodes: cfg.Nodes, Time: lastInfection}
	for _, a := range agents {
		if a.Knows("r") {
			res.Reached++
		}
	}
	st := nw.Stats()
	res.Messages = st.Sent
	res.Bytes = st.Bytes
	if cfg.Nodes > 0 {
		res.Saturation = float64(res.Reached) / float64(cfg.Nodes)
	}
	if res.Reached == 0 {
		res.Time = math.NaN()
	}
	return res
}
