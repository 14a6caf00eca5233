package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share Req; Parent links a component call to the span whose work it
// decomposes (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory; write dumps them once the run is over so
// recording costs one append per span.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// record appends a finished span and returns its ID for children to name.
func (t *tracer) record(name string, req int64, parent int, start time.Time, dur time.Duration) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), Dur: dur.Nanoseconds()})
	return id
}

// timed runs fn, records it as a span and returns the span ID.
func (t *tracer) timed(name string, req int64, parent int, fn func() error) (int, error) {
	start := time.Now()
	err := fn()
	return t.record(name, req, parent, start, time.Since(start)), err
}

// selfTimes returns every span's self time in nanoseconds, grouped by span
// name: the span's duration minus the durations of its child spans. A
// child here is a component call of the parent's request, timed on its
// own, so the subtraction attributes the parent's remaining time to the
// parent's own layer (for a routed request: the router hop).
func selfTimes(spans []span) map[string][]float64 {
	childDur := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childDur[s.Parent] += s.Dur
		}
	}
	out := make(map[string][]float64)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.Dur-childDur[i]))
	}
	return out
}

// write dumps the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, f.Close()
}
