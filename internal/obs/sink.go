package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Sink consumes completed spans. SpanEnded is called for every span as
// it ends (children end before parents, and arrive attached to their
// parent's Children); implementations must be goroutine-safe.
type Sink interface {
	SpanEnded(sd *SpanData)
}

// Collector accumulates root span trees in memory, the sink behind the
// run-report: register it with SetSink, run the workload, then call
// Roots (or build a RunReport) at the end.
type Collector struct {
	mu    sync.Mutex
	roots []*SpanData
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// SpanEnded keeps root spans (children arrive attached to them).
func (c *Collector) SpanEnded(sd *SpanData) {
	if !sd.Root {
		return
	}
	c.mu.Lock()
	c.roots = append(c.roots, sd)
	c.mu.Unlock()
}

// Roots returns the collected root span trees in end order.
func (c *Collector) Roots() []*SpanData {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*SpanData(nil), c.roots...)
}

// WriteTree renders span trees as an indented text outline with wall
// time, allocation deltas and attached metrics — the human-readable
// view of a run-report.
func WriteTree(w io.Writer, spans []*SpanData) error {
	for _, sd := range spans {
		if err := writeTreeNode(w, sd, 0); err != nil {
			return err
		}
	}
	return nil
}

func writeTreeNode(w io.Writer, sd *SpanData, depth int) error {
	indent := ""
	for i := 0; i < depth; i++ {
		indent += "  "
	}
	line := fmt.Sprintf("%s%-*s %12v  %10s  %d goroutines",
		indent, 32-2*depth, sd.Name, sd.Duration.Round(time.Microsecond),
		byteCount(sd.AllocBytes), sd.Goroutines)
	if len(sd.Metrics) > 0 {
		keys := make([]string, 0, len(sd.Metrics))
		for k := range sd.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			line += fmt.Sprintf("  %s=%.4g", k, sd.Metrics[k])
		}
	}
	if _, err := fmt.Fprintln(w, line); err != nil {
		return err
	}
	for _, ch := range sd.Children {
		if err := writeTreeNode(w, ch, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// byteCount formats a byte count with a binary unit suffix.
func byteCount(b uint64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := uint64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}
