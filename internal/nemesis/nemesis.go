// Package nemesis is the one description of the §4 link-fault model for
// both runtimes. A scenario is a list of Faults, each a network misbehaviour
// active over a time window; a Schedule judges a directed link at an instant
// and returns a Verdict that the runtime applies to the message in flight:
// whether it is cut, how much delay a slow link adds, and the per-message
// probabilities that it is lost, corrupted, held back (reordered),
// duplicated or replayed stale.
//
// The grammar is runtime-neutral and so are the verdicts: a Schedule is
// immutable data that keeps no clock, and each runtime judges a send with At
// at its own instant — the simulator in virtual time, the live link in wall
// time since its SetNemesis — so the same (time, src, dst) gets the same
// verdict in both. Verdict.Apply is the one place a verdict becomes copies:
// the runtime brings only its random stream, its base latency and its
// defaults for an unset reorder window or replay delay. Faults compose: a
// link may be slowed by one fault and flapped by another, and two loss
// faults active together drop independently.
//
// NetStats is the ledger both runtimes count a message's fate in: sent,
// delivered, dropped by cause, or injected by a fault.
package nemesis

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the fault types.
type Kind int

const (
	// Partition cuts every link between group A and group B (both
	// directions). An empty B means "everyone not in A".
	Partition Kind = iota
	// OneWay cuts only messages from group A to group B — the asymmetric
	// partition where B still reaches A but never hears back.
	OneWay
	// Flap toggles the single link A[0]–B[0] down and up with a fixed
	// period (down during the first half of each period).
	Flap
	// Stall cuts all traffic to and from the nodes in A — the network view
	// of a frozen process.
	Stall
	// Slow adds a fixed delay to every message on the link A[0]–B[0]
	// (both directions).
	Slow
	// Corrupt damages messages in transit with the given per-message
	// probability, on every link. The CRC layer must catch these.
	Corrupt
	// Loss drops messages with the given per-message probability, on every
	// link.
	Loss
	// Dup delivers an extra copy of a message with the given probability,
	// on every link; the copy takes the base delay, so it races the original
	// when that was held back.
	Dup
	// Reorder holds a message back by up to Delay extra latency with the
	// given probability, on every link, so later sends can overtake it.
	Reorder
	// Replay re-delivers a stale copy between Delay and 2·Delay after the
	// send with the given probability, on every link.
	Replay
)

var kindNames = [...]string{"partition", "oneway", "flap", "stall", "slow", "corrupt", "loss", "dup", "reorder", "replay"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Fault is one scheduled network misbehaviour. Start/End bound its active
// window ([Start, End), End 0 = open-ended); the remaining fields depend on
// Kind as documented on the Kind constants.
type Fault struct {
	Kind   Kind
	Start  time.Duration
	End    time.Duration // 0 = until the run ends
	A, B   []int         // node groups (single-element for link faults)
	Period time.Duration // Flap
	// Delay is Slow's added latency, Reorder's hold-back window and
	// Replay's stale lag; for the last two 0 means the runtime's default.
	Delay time.Duration
	Prob  float64 // Corrupt, Loss, Dup, Reorder, Replay
}

// check is the one test of a fault's numbers, for Parse and New alike: a
// window must satisfy 0 <= Start < End (or End 0), a probability must lie
// in [0,1] — NaN does not — a flap period and a slow delay must be positive
// and a reorder window or replay lag not negative.
func (f Fault) check() error {
	switch {
	case f.Start < 0 || (f.End != 0 && f.End <= f.Start):
		return fmt.Errorf("window [%v, %v): want 0 <= start < end", f.Start, f.End)
	case f.Kind >= Corrupt && !(f.Prob >= 0 && f.Prob <= 1):
		return fmt.Errorf("probability %v out of [0,1]", f.Prob)
	case f.Delay < 0 || (f.Kind == Flap && f.Period <= 0) || (f.Kind == Slow && f.Delay <= 0):
		return fmt.Errorf("%v: bad duration", f.Kind)
	}
	return nil
}

// active reports whether the fault's window covers instant t.
func (f Fault) active(t time.Duration) bool {
	return t >= f.Start && (f.End == 0 || t < f.End)
}

func in(g []int, id int) bool {
	for _, v := range g {
		if v == id {
			return true
		}
	}
	return false
}

// hits reports whether the fault, active at t, affects the directed link
// from → to, plus the flap phase test.
func (f Fault) hits(from, to int, t time.Duration) bool {
	switch f.Kind {
	case Partition:
		if len(f.B) == 0 {
			return in(f.A, from) != in(f.A, to)
		}
		return (in(f.A, from) && in(f.B, to)) || (in(f.B, from) && in(f.A, to))
	case OneWay:
		return in(f.A, from) && in(f.B, to)
	case Flap:
		if !f.link(from, to) || f.Period <= 0 {
			return false
		}
		phase := (t - f.Start) % f.Period
		return phase < f.Period/2
	case Stall:
		return in(f.A, from) || in(f.A, to)
	}
	return false
}

// link reports whether (from, to) is the undirected link A[0]–B[0].
func (f Fault) link(from, to int) bool {
	if len(f.A) != 1 || len(f.B) != 1 {
		return false
	}
	return (f.A[0] == from && f.B[0] == to) || (f.B[0] == from && f.A[0] == to)
}

// String renders the fault back in the scenario grammar; Parse reads it
// back as the same fault.
func (f Fault) String() string {
	win := fmtDur(f.Start) + "-"
	if f.End != 0 {
		win += fmtDur(f.End)
	}
	g := func(ids []int) string {
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = strconv.Itoa(id)
		}
		return strings.Join(parts, ",")
	}
	switch f.Kind {
	case Partition:
		s := fmt.Sprintf("partition:%s:%s", win, g(f.A))
		if len(f.B) > 0 {
			s += "|" + g(f.B)
		}
		return s
	case OneWay:
		return fmt.Sprintf("oneway:%s:%s|%s", win, g(f.A), g(f.B))
	case Flap:
		return fmt.Sprintf("flap:%d-%d:%s:%s", f.A[0], f.B[0], fmtDur(f.Period), win)
	case Stall:
		return fmt.Sprintf("stall:%s:%s", g(f.A), win)
	case Slow:
		return fmt.Sprintf("slow:%d-%d:%s:%s", f.A[0], f.B[0], fmtDur(f.Delay), win)
	case Reorder, Replay:
		if f.Delay != 0 {
			return fmt.Sprintf("%v:%g:%s:%s", f.Kind, f.Prob, fmtDur(f.Delay), win)
		}
	}
	if f.Kind >= Corrupt {
		return fmt.Sprintf("%v:%g:%s", f.Kind, f.Prob, win)
	}
	return "unknown"
}

// fmtDur renders d as bare whole seconds when it is one, else in Go syntax;
// both forms parse back to exactly d.
func fmtDur(d time.Duration) string {
	if d%time.Second == 0 {
		return strconv.FormatInt(int64(d/time.Second), 10)
	}
	return d.String()
}

// Verdict is a Schedule's judgement of one message on one directed link at
// one instant. Zero value = deliver normally. Apply carries it out.
type Verdict struct {
	Cut   bool
	Delay time.Duration // extra latency a slow link adds
	// Per-message probabilities. Active faults of one kind compose as
	// independent events.
	Loss, Corrupt, Reorder, Dup, Replay float64
	// ReorderWindow bounds a held-back message's extra delay and ReplayAfter
	// a stale copy's lag: the widest among the active faults, 0 for the
	// runtime's default.
	ReorderWindow, ReplayAfter time.Duration
}

// Sentence is what Apply makes of one message: Delay[:Copies] are the
// delays, in seconds after the send, of the copies that take the wire, the
// original first; Corrupt marks the one copy of a damaged message. No copies
// means the message vanished, and Apply counted why.
type Sentence struct {
	Delay   [3]float64
	Copies  int
	Corrupt bool
}

// Apply carries out the verdict on one message, the one transcription of the
// order both runtimes follow: a cut drops it; otherwise the draws run loss →
// corrupt → reorder → duplicate → replay on r, each only when its
// probability is positive, so a run without a fault of a kind draws nothing
// for it. A corrupt message is one damaged copy at the base latency, and
// draws nothing further. Delay is added to every copy that takes base, the
// link's latency in seconds; a held-back original gains up to the verdict's
// window, else reorderWindow, and a replayed copy comes one to two times the
// verdict's lag, else replayAfter, after the send. Apply counts the cut and
// the loss in st and the reorder, duplicate and replay injections; the
// runtime counts a copy's fate on the wire, a damaged one's included.
func (v Verdict) Apply(r *rand.Rand, base, reorderWindow, replayAfter float64, st *NetStats) Sentence {
	var s Sentence
	switch {
	case v.Cut:
		st.Drop(&st.Cut)
		return s
	case v.Loss > 0 && r.Float64() < v.Loss:
		st.Drop(&st.Lost)
		return s
	}
	delay := base + v.Delay.Seconds()
	s.Delay[0], s.Copies = delay, 1
	if v.Corrupt > 0 && r.Float64() < v.Corrupt {
		s.Corrupt = true
		return s
	}
	if v.Reorder > 0 && r.Float64() < v.Reorder {
		// Held back: messages sent after this one can overtake it.
		if v.ReorderWindow > 0 {
			reorderWindow = v.ReorderWindow.Seconds()
		}
		s.Delay[0] += r.Float64() * reorderWindow
		st.Reordered++
	}
	if v.Dup > 0 && r.Float64() < v.Dup {
		// The duplicate takes its own base latency, so the copies race.
		s.Delay[s.Copies] = delay
		s.Copies++
		st.Duplicated++
	}
	if v.Replay > 0 && r.Float64() < v.Replay {
		// A stale copy surfaces much later — a retransmit buffer flushing, a
		// route flap healing — when both ends have long moved past it.
		if v.ReplayAfter > 0 {
			replayAfter = v.ReplayAfter.Seconds()
		}
		s.Delay[s.Copies] = replayAfter * (1 + r.Float64())
		s.Copies++
		st.Replayed++
	}
	return s
}

// either is the probability that at least one of two independent events
// with probabilities p and q happens. It is exact when either is 0, so a
// lone fault's probability reaches the draw unrounded.
func either(p, q float64) float64 { return p + q - p*q }

// Schedule holds a scenario's faults and judges links against them. It is
// immutable and keeps no clock: fault windows are relative to an origin the
// runtime judging it keeps, so one Schedule may serve several runs at once.
type Schedule struct {
	faults []Fault
}

// New builds a schedule over the given faults. It panics on a fault the
// grammar could not express — a NaN or out-of-range probability built in
// code must not silently run a different network.
func New(faults ...Fault) *Schedule {
	for _, f := range faults {
		if err := f.check(); err != nil {
			panic(fmt.Sprintf("nemesis: %v fault: %v", f.Kind, err))
		}
	}
	return &Schedule{faults: faults}
}

// Faults returns the scenario (shared slice; treat as read-only). A nil
// schedule has none.
func (s *Schedule) Faults() []Fault {
	if s == nil {
		return nil
	}
	return s.faults
}

// At is the judgement: the verdict for a message from → to at instant t
// after the origin. Deterministic, lock-free and allocation-free; a nil
// schedule judges every message clean.
func (s *Schedule) At(from, to int, t time.Duration) Verdict {
	var v Verdict
	if s == nil {
		return v
	}
	for i := range s.faults {
		f := &s.faults[i]
		if !f.active(t) {
			continue
		}
		switch f.Kind {
		case Slow:
			if f.link(from, to) {
				v.Delay += f.Delay
			}
		case Loss:
			v.Loss = either(v.Loss, f.Prob)
		case Corrupt:
			v.Corrupt = either(v.Corrupt, f.Prob)
		case Reorder:
			v.Reorder = either(v.Reorder, f.Prob)
			v.ReorderWindow = max(v.ReorderWindow, f.Delay)
		case Dup:
			v.Dup = either(v.Dup, f.Prob)
		case Replay:
			v.Replay = either(v.Replay, f.Prob)
			v.ReplayAfter = max(v.ReplayAfter, f.Delay)
		default:
			if f.hits(from, to, t) {
				v.Cut = true
			}
		}
	}
	return v
}

// Horizon returns the latest window end across all faults (0 if any fault
// is open-ended or the schedule is empty) — callers use it to size run
// timeouts.
func (s *Schedule) Horizon() time.Duration {
	if s == nil {
		return 0
	}
	var h time.Duration
	for _, f := range s.faults {
		if f.End == 0 {
			return 0
		}
		if f.End > h {
			h = f.End
		}
	}
	return h
}

// Parse reads one fault in the scenario grammar:
//
//	partition:T1-T2:a[|b]      cut group a from group b (b defaults to rest)
//	oneway:T1-T2:a|b           cut only the a → b direction
//	flap:A-B:PERIOD[:T1-T2]    link A–B toggles down/up each PERIOD
//	stall:a:T1-T2              nodes in a drop all traffic, both directions
//	slow:A-B:DELAY[:T1-T2]     add DELAY to each message on link A–B
//	corrupt:P[:T1-T2]          damage messages with probability P, all links
//	loss:P[:T1-T2]             drop messages with probability P, all links
//	dup:P[:T1-T2]              deliver an extra copy with probability P
//	reorder:P[:WINDOW][:T1-T2] hold back by up to WINDOW with probability P
//	replay:P[:DELAY][:T1-T2]   re-deliver DELAY to 2·DELAY late with probability P
//
// Durations accept Go syntax ("750ms") or bare seconds ("1.5"); windows are
// "start-end" with an optional open end ("2-"), and an omitted window is
// the whole run. A reorder WINDOW or replay DELAY of 0, or none, leaves the
// runtime's default. Groups are comma-separated node IDs; "|" separates two
// sides.
func Parse(s string) (Fault, error) {
	f, err := parse(s)
	if err == nil {
		err = f.check()
	}
	if err != nil {
		return Fault{}, fmt.Errorf("nemesis: %q: %v", s, err)
	}
	return f, nil
}

// parse reads the fields of one fault; Parse then checks the whole.
func parse(s string) (f Fault, err error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 {
		return f, fmt.Errorf("want kind:args")
	}
	// window reads an optional trailing window at parts[i].
	window := func(i int) (err error) {
		if i < len(parts) {
			f.Start, f.End, err = parseWindow(parts[i])
		}
		return err
	}
	switch parts[0] {
	case "partition", "oneway":
		if len(parts) != 3 {
			return f, fmt.Errorf("want %s:T1-T2:a|b", parts[0])
		}
		f.Kind = Partition
		if parts[0] == "oneway" {
			f.Kind = OneWay
		}
		if err = window(1); err != nil {
			return f, err
		}
		sides := strings.Split(parts[2], "|")
		if len(sides) > 2 {
			return f, fmt.Errorf("more than two sides")
		}
		if f.A, err = parseGroup(sides[0]); err != nil {
			return f, err
		}
		if len(sides) == 2 {
			if f.B, err = parseGroup(sides[1]); err != nil {
				return f, err
			}
		}
		if f.Kind == OneWay && len(f.B) == 0 {
			return f, fmt.Errorf("oneway needs both sides: a|b")
		}
		return f, nil
	case "flap", "slow":
		if len(parts) != 3 && len(parts) != 4 {
			return f, fmt.Errorf("want %s:A-B:arg[:T1-T2]", parts[0])
		}
		a, b, err := parseLink(parts[1])
		if err != nil {
			return f, err
		}
		f.A, f.B = []int{a}, []int{b}
		d, err := parseDur(parts[2])
		if err != nil {
			return f, err
		}
		if parts[0] == "flap" {
			f.Kind, f.Period = Flap, d
		} else {
			f.Kind, f.Delay = Slow, d
		}
		return f, window(3)
	case "stall":
		if len(parts) != 3 {
			return f, fmt.Errorf("want stall:nodes:T1-T2")
		}
		f.Kind = Stall
		if f.A, err = parseGroup(parts[1]); err != nil {
			return f, err
		}
		return f, window(2)
	case "corrupt", "loss", "dup", "reorder", "replay":
		f.Kind = Kind(slices.Index(kindNames[:], parts[0]))
		timed := f.Kind == Reorder || f.Kind == Replay
		if len(parts) > 4 || (len(parts) == 4 && !timed) {
			return f, fmt.Errorf("too many fields")
		}
		if f.Prob, err = strconv.ParseFloat(parts[1], 64); err != nil {
			return f, fmt.Errorf("bad probability %q", parts[1])
		}
		// The optional duration precedes the optional window; a third field
		// that does not read as a duration is the window.
		if timed && len(parts) > 2 {
			d, derr := parseDur(parts[2])
			if derr == nil {
				f.Delay = d
				return f, window(3)
			}
			if len(parts) == 4 {
				return f, derr
			}
		}
		return f, window(2)
	}
	return f, fmt.Errorf("unknown fault kind %q", parts[0])
}

// ParseAll parses a whole scenario, one fault per string.
func ParseAll(specs []string) ([]Fault, error) {
	fs := make([]Fault, 0, len(specs))
	for _, s := range specs {
		f, err := Parse(s)
		if err != nil {
			return nil, err
		}
		fs = append(fs, f)
	}
	return fs, nil
}

// parseDur reads a non-negative duration that fits a time.Duration: whole
// seconds ("3"), fractional seconds ("1.5"), or Go syntax ("750ms"). NaN,
// infinities and out-of-range values are rejected, never wrapped.
func parseDur(s string) (time.Duration, error) {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		if n < 0 || n > math.MaxInt64/int64(time.Second) {
			return 0, fmt.Errorf("duration %q out of range", s)
		}
		return time.Duration(n) * time.Second, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		ns := f * float64(time.Second)
		if !(ns >= 0 && ns < math.MaxInt64) {
			return 0, fmt.Errorf("duration %q out of range", s)
		}
		return time.Duration(ns), nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	return d, nil
}

// parseWindow reads "start-end", where end may be empty for an open window.
func parseWindow(s string) (start, end time.Duration, err error) {
	i := strings.LastIndex(s, "-")
	if i < 0 {
		return 0, 0, fmt.Errorf("window %q: want start-end", s)
	}
	if start, err = parseDur(s[:i]); err != nil {
		return 0, 0, fmt.Errorf("window %q: %v", s, err)
	}
	if s[i+1:] == "" {
		return start, 0, nil
	}
	if end, err = parseDur(s[i+1:]); err != nil {
		return 0, 0, fmt.Errorf("window %q: %v", s, err)
	}
	return start, end, nil
}

// parseLink reads "A-B", two distinct node IDs.
func parseLink(s string) (int, int, error) {
	i := strings.Index(s, "-")
	if i < 0 {
		return 0, 0, fmt.Errorf("link %q: want A-B", s)
	}
	a, err1 := strconv.Atoi(s[:i])
	b, err2 := strconv.Atoi(s[i+1:])
	if err1 != nil || err2 != nil || a < 0 || b < 0 {
		return 0, 0, fmt.Errorf("link %q: want two node ids", s)
	}
	if a == b {
		return 0, 0, fmt.Errorf("link %q: self-link", s)
	}
	return a, b, nil
}

// parseGroup reads a comma-separated list of node IDs.
func parseGroup(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("empty node group")
	}
	parts := strings.Split(s, ",")
	ids := make([]int, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.Atoi(p)
		if err != nil || id < 0 {
			return nil, fmt.Errorf("bad node id %q", p)
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}
