package gb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer: name, start and end in nanoseconds
// since the recorder's epoch, the span that caused it (-1 for none), and the
// solve it belongs to.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Solve  int32  `json:"solve"`
}

// Recorder keeps spans in memory until the run ends. The loopback harness is
// single-threaded and nests spans through Begin/End, where the open span is
// the parent of the next; the live wrappers run on node goroutines and Add
// finished spans under a mutex, all children of the solve's root span.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
	stack []int32
	solve int32
}

// NewRecorder starts a recorder whose epoch is now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// NextSolve starts a new solve id and returns it.
func (r *Recorder) NextSolve() int32 {
	r.solve++
	return r.solve
}

// Begin opens a span nested under the currently open one. A nil recorder
// records nothing, which is the untraced path.
func (r *Recorder) Begin(name string) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, Span{Name: name, Parent: parent, Solve: r.solve})
	r.stack = append(r.stack, id)
	r.spans[id].Start = r.now()
	return id
}

// End closes the span Begin returned.
func (r *Recorder) End(id int32) {
	if r == nil {
		return
	}
	r.spans[id].End = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// Add records a finished span from any goroutine.
func (r *Recorder) Add(name string, start, end int64, parent int32) {
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: name, Start: start, End: end, Parent: parent, Solve: r.solve})
	r.mu.Unlock()
}

// Spans returns everything recorded so far.
func (r *Recorder) Spans() []Span { return r.spans }

// Reset drops the recorded spans, keeping the epoch and the solve counter.
func (r *Recorder) Reset() { r.spans, r.stack = r.spans[:0], r.stack[:0] }

// SpanStat aggregates the spans of one name.
type SpanStat struct {
	Count int
	Total int64 // sum of durations, ns
	Self  int64 // sum of self times, ns
}

// SelfTimes computes, per span name, the count, total duration and self
// time: a span's duration minus the part of it its child spans cover.
// Children may overlap each other (concurrent sends under one solve) and may
// stick out of the parent (a transit that outlives the call that caused it);
// only the union of the children clipped to the parent is subtracted.
func SelfTimes(spans []Span) map[string]SpanStat {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]SpanStat)
	for i, s := range spans {
		dur := s.End - s.Start
		st := out[s.Name]
		st.Count++
		st.Total += dur
		st.Self += dur - covered(kids[int32(i)], s.Start, s.End)
		out[s.Name] = st
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	end := lo
	for _, iv := range ivs {
		a, b := max(iv[0], end), min(iv[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// WriteJSONL writes one span per line.
func WriteJSONL(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
