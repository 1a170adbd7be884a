package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanRec is one recorded layer call: the operation it belongs to
// (spans of one corpus item or one request share Op), its name
// (<module>.<call>), its parent span (-1 for a root) and its interval
// in nanoseconds since the recorder started.
type spanRec struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory while the benchmark runs; they are
// written out once at the end. A disabled recorder records nothing and
// costs one branch per call, which is how the untraced side of the
// trace-overhead ratio runs the same code.
type recorder struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, t0: time.Now()}
}

// begin opens a span and returns its id (-1 when disabled).
func (r *recorder) begin(op int64, name string, parent int32) int32 {
	if !r.on {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, spanRec{Op: op, Name: name, Parent: parent, Start: now, End: -1})
	r.mu.Unlock()
	return id
}

// end closes span id.
func (r *recorder) end(id int32) {
	if id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// durations returns the durations of every closed span called name.
func (r *recorder) durations(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// total is the summed duration of the spans called name: the layer's
// busy time, which exceeds wall time when calls run in parallel.
func (r *recorder) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range r.durations(name) {
		sum += d
	}
	return sum
}

// p50us is the median duration of the spans called name, in µs (0 when
// none were recorded).
func (r *recorder) p50us(name string) float64 {
	ds := r.durations(name)
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	return median(xs)
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
