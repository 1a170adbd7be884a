// Package obs is the observability layer of the repository: a
// goroutine-safe metrics registry (counters, gauges, fixed-bucket
// histograms with snapshot and merge), hierarchical span tracing that
// captures wall time, heap-allocation deltas and goroutine counts, a
// pluggable span sink (the in-memory collector behind the run-report,
// rendered as a text tree), an expvar/pprof debug endpoint, and a
// machine-readable JSON run-report.
//
// The package is stdlib-only and sits below every other internal
// package, so the sparse kernels, the feature extractor, the clustering
// algorithms and the evaluation harness can all report into one place.
//
// Everything is designed to be no-op-cheap when disabled: until a Sink
// is registered with SetSink, Start returns a nil span, Now returns the
// zero time, and all recording helpers return after a single atomic
// load (see BenchmarkObsOverhead).
package obs

import (
	"context"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// sink holds the registered Sink. A nil pointer means observability is
// disabled; the extra box keeps the atomic.Pointer type concrete while
// the Sink itself is an interface. enabled32 mirrors "sinkPtr != nil" as
// a raw word because atomic.LoadUint32 is cheap enough for the compiler
// to inline the gate into every instrumented call site (the shape of
// Start and Enabled is tuned against the inliner's cost budget — see
// BenchmarkObsOverhead before changing them).
var (
	sinkPtr   atomic.Pointer[sinkBox]
	enabled32 uint32
)

type sinkBox struct{ s Sink }

// Enabled reports whether a sink is registered. Hot paths check this
// (one atomic load) before doing any real work.
func Enabled() bool { return atomic.LoadUint32(&enabled32) != 0 }

// SetSink registers the span sink and enables instrumentation; a nil
// sink disables it again. Metric recording, span tracing and timer
// histograms are all gated on a sink being present.
func SetSink(s Sink) {
	if s == nil {
		atomic.StoreUint32(&enabled32, 0)
		sinkPtr.Store(nil)
		return
	}
	sinkPtr.Store(&sinkBox{s: s})
	atomic.StoreUint32(&enabled32, 1)
}

// currentSink returns the registered sink or nil.
func currentSink() Sink {
	if b := sinkPtr.Load(); b != nil {
		return b.s
	}
	return nil
}

// Now returns the current wall clock when observability is enabled and
// the zero time otherwise. Instrumented hot paths pair it with a
// recording helper that treats the zero time as "do nothing", keeping
// the disabled cost to one atomic load:
//
//	start := obs.Now()
//	...kernel...
//	observeKernel(fmt, rows, nnz, start) // no-op when start.IsZero()
func Now() time.Time {
	if atomic.LoadUint32(&enabled32) == 0 {
		return time.Time{}
	}
	return time.Now()
}

// ---------------------------------------------------------------------
// Span tracing.

// SpanData is the immutable record of a completed span, the unit every
// Sink consumes and the node type of the run-report's span trees.
type SpanData struct {
	// Name is the span's own label ("cluster/kmeans").
	Name string `json:"name"`
	// Path is the slash-joined chain of ancestor names ("table/corpus/features").
	Path string `json:"path"`
	// TraceID correlates the span with the request that started it (set
	// when the span's context carried obs.WithTraceID) and with the
	// request's access-log line.
	TraceID string `json:"trace_id,omitempty"`
	// Start is the wall-clock start time.
	Start time.Time `json:"start"`
	// Duration is the span's wall time in nanoseconds.
	Duration time.Duration `json:"duration_ns"`
	// AllocBytes and AllocObjects are process-wide heap-allocation
	// deltas over the span (runtime/metrics /gc/heap/allocs). They are
	// attribution hints, not exact per-span costs: concurrent work is
	// included.
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"alloc_objects"`
	// Goroutines is the goroutine count when the span ended.
	Goroutines int `json:"goroutines"`
	// Metrics carries values attached with SetMetric (iteration counts,
	// row counts, scores).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Children are the completed child spans, in end order.
	Children []*SpanData `json:"children,omitempty"`
	// Root marks a span with no parent; sinks that collect whole trees
	// keep only roots (children arrive attached).
	Root bool `json:"root,omitempty"`
}

// Span is an in-flight traced region. A nil *Span is valid and inert,
// which is how the disabled path stays free.
type Span struct {
	name   string
	path   string
	trace  string
	start  time.Time
	parent *Span
	// ctx is the derived context carrying this span; startSpan stores it
	// here so the Start wrapper stays single-result and under the inline
	// budget.
	ctx context.Context

	allocB0 uint64
	allocO0 uint64

	mu       sync.Mutex
	metrics  map[string]float64
	children []*SpanData
	ended    bool
}

type spanCtxKey struct{}

// traceCtxKey carries a request-scoped trace ID through context, so
// every span started under an HTTP request (and the request's access
// log line) share one correlation ID.
type traceCtxKey struct{}

// WithTraceID returns a context carrying the trace ID. An empty id
// returns ctx unchanged.
func WithTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, id)
}

// TraceID returns the trace ID carried by ctx, or "".
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceCtxKey{}).(string)
	return id
}

// Start begins a span named name, parented to the span carried by ctx
// (if any), and returns a derived context carrying the new span. When
// observability is disabled it returns ctx unchanged and a nil span; all
// Span methods are nil-safe. The wrapper is small enough to inline, so
// the disabled cost is one atomic load and a branch.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if atomic.LoadUint32(&enabled32) == 0 {
		return ctx, nil
	}
	s := startSpan(ctx, name)
	return s.ctx, s
}

// StartAlways begins a span regardless of whether a sink is registered.
// Request owners (the serve/proxy front doors) use it to build per-request
// trace trees that are offered to a tail-sampling TraceStore even when no
// global sink is active; the finished tree is retrieved with EndData.
// Unlike Start it is never free, so it belongs on request roots, not on
// library hot paths.
func StartAlways(ctx context.Context, name string) (context.Context, *Span) {
	s := startSpan(ctx, name)
	return s.ctx, s
}

// StartChild begins a span when ctx already carries a parent span (a
// request root made with StartAlways) or when a sink is registered;
// otherwise it returns ctx unchanged and a nil span. It is the
// instrumentation point for request-stage code: stages join always-on
// request trees at the cost of one context lookup, while code running
// outside a request keeps the plain Start semantics. Start itself stays
// lookup-free so its disabled path remains a single atomic load.
func StartChild(ctx context.Context, name string) (context.Context, *Span) {
	if atomic.LoadUint32(&enabled32) == 0 {
		if p, _ := ctx.Value(spanCtxKey{}).(*Span); p == nil {
			return ctx, nil
		}
	}
	s := startSpan(ctx, name)
	return s.ctx, s
}

func startSpan(ctx context.Context, name string) *Span {
	parent, _ := ctx.Value(spanCtxKey{}).(*Span)
	s := &Span{name: name, parent: parent, start: time.Now()}
	if parent != nil {
		s.path = parent.path + "/" + name
		s.trace = parent.trace
	} else {
		s.path = name
		s.trace = TraceID(ctx)
	}
	s.allocB0, s.allocO0 = heapAllocs()
	s.ctx = context.WithValue(ctx, spanCtxKey{}, s)
	return s
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// SetMetric attaches a named value to the span (an iteration count, a
// convergence flag, a score). Nil-safe.
func (s *Span) SetMetric(name string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.metrics == nil {
		s.metrics = make(map[string]float64, 4)
	}
	s.metrics[name] = v
	s.mu.Unlock()
}

// addChild records a completed child span.
func (s *Span) addChild(sd *SpanData) {
	s.mu.Lock()
	s.children = append(s.children, sd)
	s.mu.Unlock()
}

// End completes the span, snapshots its measurements, attaches it to its
// parent and delivers it to the sink. Ending a span twice is a no-op, as
// is ending a nil span (the wrapper inlines, so the disabled path is a
// single nil check).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.end()
}

// EndData completes the span like End and returns the completed record
// (nil for a nil or already-ended span). Request owners use it to hand
// the finished tree to a TraceStore without requiring a global sink.
func (s *Span) EndData() *SpanData {
	if s == nil {
		return nil
	}
	return s.end()
}

func (s *Span) end() *SpanData {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return nil
	}
	s.ended = true
	metrics := s.metrics
	children := s.children
	s.mu.Unlock()

	b1, o1 := heapAllocs()
	sd := &SpanData{
		Name:         s.name,
		Path:         s.path,
		TraceID:      s.trace,
		Start:        s.start,
		Duration:     time.Since(s.start),
		AllocBytes:   b1 - s.allocB0,
		AllocObjects: o1 - s.allocO0,
		Goroutines:   runtime.NumGoroutine(),
		Metrics:      metrics,
		Children:     children,
		Root:         s.parent == nil,
	}
	if s.parent != nil {
		s.parent.addChild(sd)
	}
	if sk := currentSink(); sk != nil {
		sk.SpanEnded(sd)
	}
	return sd
}

// heapAllocs returns the cumulative heap allocation counters from
// runtime/metrics (cheap; no stop-the-world, unlike ReadMemStats).
func heapAllocs() (bytes, objects uint64) {
	samples := [2]rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	rtmetrics.Read(samples[:])
	if samples[0].Value.Kind() == rtmetrics.KindUint64 {
		bytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == rtmetrics.KindUint64 {
		objects = samples[1].Value.Uint64()
	}
	return bytes, objects
}

// ---------------------------------------------------------------------
// Timers: the single code path for every reported wall-clock duration.

// Timer measures one wall-clock interval. Unlike spans it always
// measures (reported durations must not depend on whether a sink is
// registered); only the histogram recording is gated.
type Timer struct {
	name  string
	start time.Time
}

// StartTimer starts a named timer.
func StartTimer(name string) Timer {
	return Timer{name: name, start: time.Now()}
}

// Stop returns the elapsed duration and, when observability is enabled,
// records it (in seconds) into the histogram "<name>/seconds" of the
// default registry.
func (t Timer) Stop() time.Duration {
	d := time.Since(t.start)
	if Enabled() {
		Default.Histogram(t.name+"/seconds", DurationBuckets).Observe(d.Seconds())
	}
	return d
}
