package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded from outside the layer
// by the benchmark's own code. Times are nanoseconds since the
// recorder was created.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: a root span
	Op     int64  `json:"op"`     // the operation the span serves (0: none)
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil Recorder,
// or one whose recording is switched off, records nothing, so call
// sites need no tracing branch of their own.
type Recorder struct {
	t0    time.Time
	next  atomic.Int64
	on    atomic.Bool
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns a recorder with recording switched on.
func NewRecorder() *Recorder {
	r := &Recorder{t0: time.Now()}
	r.on.Store(true)
	return r
}

// SetRecording switches recording on or off (a nil Recorder ignores it).
func (r *Recorder) SetRecording(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// Recording reports whether spans begun now are kept.
func (r *Recorder) Recording() bool { return r != nil && r.on.Load() }

// OpenSpan is a begun span; End records it.
type OpenSpan struct {
	r      *Recorder
	id     int64
	parent int64
	op     int64
	name   string
	start  time.Time
}

// Begin opens a span; its ID is 0 when nothing is being recorded.
func (r *Recorder) Begin(name string, parent, op int64) OpenSpan {
	if !r.Recording() {
		return OpenSpan{}
	}
	return OpenSpan{r: r, id: r.next.Add(1), parent: parent, op: op, name: name, start: time.Now()}
}

// ID is the span's identifier, for use as a child's parent.
func (s OpenSpan) ID() int64 { return s.id }

// End closes and keeps the span.
func (s OpenSpan) End() {
	if s.r == nil {
		return
	}
	end := time.Now()
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, Span{
		ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		Start: s.start.Sub(s.r.t0).Nanoseconds(), End: end.Sub(s.r.t0).Nanoseconds(),
	})
	s.r.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// DurationsMs returns the durations, in milliseconds, of every span
// with the given name.
func (r *Recorder) DurationsMs(name string) []float64 {
	var out []float64
	for _, s := range r.Spans() {
		if s.Name == name {
			out = append(out, float64(s.Dur())/1e6)
		}
	}
	return out
}

// selfTimes maps each span ID to its self time: its duration minus
// the part of its interval that its child spans cover. Overlapping
// children (parallel workers under one sweep) are counted once.
func selfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// SpanSummary aggregates the spans of one name.
type SpanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summarize totals duration and self time per span name, sorted by
// self time, largest first.
func summarize(spans []Span) []SpanSummary {
	self := selfTimes(spans)
	by := make(map[string]*SpanSummary)
	for _, s := range spans {
		sum := by[s.Name]
		if sum == nil {
			sum = &SpanSummary{Name: s.Name}
			by[s.Name] = sum
		}
		sum.Count++
		sum.TotalMs += float64(s.Dur()) / 1e6
		sum.SelfMs += float64(self[s.ID]) / 1e6
	}
	out := make([]SpanSummary, 0, len(by))
	for _, s := range by {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMs != out[j].SelfMs {
			return out[i].SelfMs > out[j].SelfMs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WriteFile dumps every span and the per-name summary as JSON.
func (r *Recorder) WriteFile(path string) error {
	spans := r.Spans()
	doc, err := json.Marshal(struct {
		Summary []SpanSummary `json:"summary"`
		Spans   []Span        `json:"spans"`
	}{summarize(spans), spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}

// spanKey carries the enclosing span's ID (and its operation) through
// a context, so calls made on behalf of an operation — a primitive run
// inside a sweep, an HTTP request inside a job — nest under it.
type spanKey struct{}

type spanRef struct{ id, op int64 }

func withSpan(ctx context.Context, id, op int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, op})
}

func spanFrom(ctx context.Context) (id, op int64) {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref.id, ref.op
}
