package bench

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call: its name, the layer it belongs to, its start and
// end in nanoseconds since the op began, the index of its parent span (-1
// for a top-level call) and the op it was recorded in.
type Span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
}

// Dur returns the span's duration in seconds.
func (s Span) Dur() float64 { return float64(s.End-s.Start) / 1e9 }

// Recorder keeps spans in memory for one op; they are written out once, at
// exit. It is safe for concurrent use.
type Recorder struct {
	op    string
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an op's clock.
func NewRecorder(op string) *Recorder { return &Recorder{op: op, t0: time.Now()} }

// Begin opens a span under parent (-1 = top level) and returns its index.
func (r *Recorder) Begin(name, layer string, parent int) int {
	start := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: name, Layer: layer, Start: start, End: -1, Parent: parent, Op: r.op})
	return len(r.spans) - 1
}

// End closes the span Begin returned.
func (r *Recorder) End(id int) {
	end := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// Ended records a span that ends now after running for elapsed seconds:
// a call the code under test timed itself.
func (r *Recorder) Ended(name, layer string, parent int, elapsed float64) {
	end := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: name, Layer: layer, Start: end - int64(elapsed*1e9), End: end, Parent: parent, Op: r.op})
	r.mu.Unlock()
}

// Do runs f inside a span.
func (r *Recorder) Do(name, layer string, parent int, f func() error) error {
	id := r.Begin(name, layer, parent)
	defer r.End(id)
	return f()
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns each layer's self time in seconds: the time inside its
// spans minus the time inside their direct children. Children must nest
// within their parents and siblings must not overlap, which holds for the
// sequential calls the traced ops make.
func SelfTimes(spans []Span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer] += s.Dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			out[spans[s.Parent].Layer] -= s.Dur()
		}
	}
	return out
}

// Covered returns the total self time of spans, which equals the total
// duration of the top-level spans.
func Covered(spans []Span) float64 {
	total := 0.0
	for _, s := range spans {
		if s.Parent < 0 {
			total += s.Dur()
		}
	}
	return total
}

// traceEvent is one Chrome trace-event "complete" event. Perfetto and
// chrome://tracing both open a file of these.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes the ops' spans as Chrome trace-event JSON, one
// process row per op, with each op's spans offset by its start (in seconds
// since the first op began).
func WriteChromeTrace(w io.Writer, ops []TracedOp) error {
	var events []traceEvent
	for pid, op := range ops {
		events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: pid + 1, Args: map[string]string{"name": op.Name}})
		base := op.Offset * 1e6
		for _, s := range op.Spans {
			parent := ""
			if s.Parent >= 0 {
				parent = op.Spans[s.Parent].Name
			}
			events = append(events, traceEvent{
				Name: s.Name, Cat: s.Layer, Ph: "X",
				Ts: base + float64(s.Start)/1e3, Dur: float64(s.End-s.Start) / 1e3,
				Pid: pid + 1, Tid: 1,
				Args: map[string]string{"op": s.Op, "parent": parent},
			})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// LayerOutput is what one invocation of the layers binary prints: one
// traced op's spans, or the probes.
type LayerOutput struct {
	Spans []Span `json:"spans,omitempty"`
	// Values are per-layer metrics measured in-process: counters from the
	// program's stats, filesystem totals, probe results.
	Values map[string]float64 `json:"values"`
	// Digest is the SHA-256 of the op's report as -no-timings renders it.
	Digest string `json:"digest,omitempty"`
	// Digests are per-figure digests (the serve op).
	Digests map[string]string `json:"digests,omitempty"`
}

// TracedOp is one traced op's spans, placed on the run's timeline.
type TracedOp struct {
	Name   string
	Offset float64
	Spans  []Span
}
