package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// DefaultReportPath is where instrumented commands write their run
// report and where `spmvselect report` looks for it.
const DefaultReportPath = "obs-run.json"

// RunReport is the machine-readable record of one instrumented run:
// the span trees of every pipeline stage plus a snapshot of the metrics
// registry, for diffing the per-stage timings and kernel throughput
// histograms of two runs.
type RunReport struct {
	// Command and Args identify the invocation ("table", ["-n", "9"]).
	Command string   `json:"command"`
	Args    []string `json:"args,omitempty"`
	// Start and Duration cover the instrumented window.
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	// Host fingerprint, so reports from different machines are not
	// compared naively.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// Spans are the collected root span trees (per-stage timings).
	Spans []*SpanData `json:"spans"`
	// Metrics is the registry snapshot (counters, gauges, histograms —
	// including the spmv/<format> kernel-throughput histograms).
	Metrics Snapshot `json:"metrics"`
}

// Report builds a RunReport from the collector's spans and the default
// registry's current state.
func (c *Collector) Report(command string, args []string) *RunReport {
	spans := c.Roots()
	r := &RunReport{
		Command:   command,
		Args:      append([]string(nil), args...),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Spans:     spans,
		Metrics:   Default.Snapshot(),
	}
	var end time.Time
	for _, sd := range spans {
		if r.Start.IsZero() || sd.Start.Before(r.Start) {
			r.Start = sd.Start
		}
		if e := sd.Start.Add(sd.Duration); e.After(end) {
			end = e
		}
	}
	if !r.Start.IsZero() {
		r.Duration = end.Sub(r.Start)
	}
	return r
}

// FindSpan returns the first span (depth-first over all trees) whose
// path ends with suffix, or nil. Convenience for tests and report
// consumers ("corpus/features", "cluster/kmeans", ...).
func (r *RunReport) FindSpan(suffix string) *SpanData {
	var walk func(sd *SpanData) *SpanData
	walk = func(sd *SpanData) *SpanData {
		if hasPathSuffix(sd.Path, suffix) {
			return sd
		}
		for _, ch := range sd.Children {
			if m := walk(ch); m != nil {
				return m
			}
		}
		return nil
	}
	for _, sd := range r.Spans {
		if m := walk(sd); m != nil {
			return m
		}
	}
	return nil
}

// hasPathSuffix reports whether path equals suffix or ends with
// "/"+suffix.
func hasPathSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	n := len(path) - len(suffix)
	return n > 0 && path[n-1] == '/' && path[n:] == suffix
}

// WriteReport writes the report as indented JSON to path.
func WriteReport(path string, r *RunReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding run report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("obs: writing run report: %w", err)
	}
	return nil
}

// ReadReport reads a report written by WriteReport.
func ReadReport(path string) (*RunReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: reading run report: %w", err)
	}
	var r RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("obs: parsing run report %s: %w", path, err)
	}
	return &r, nil
}
