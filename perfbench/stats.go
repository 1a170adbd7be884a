package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile for
// it to mean more than "the largest few samples".
const minTail = 10

// tailLevels are the percentiles a latency tail may be reported at, in
// increasing order.
var tailLevels = []float64{50, 90, 99, 99.9, 99.99}

// highestSupported returns the highest percentile in tailLevels with at
// least minTail of n samples beyond it, and false when even the median
// lacks that support.
func highestSupported(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, q := range tailLevels {
		// Samples strictly above the q-th percentile, in the
		// nearest-rank convention percentile uses.
		beyond := n - rank(n, q)
		if beyond >= minTail {
			best, ok = q, true
		}
	}
	return best, ok
}

// rank is the 1-based nearest rank of the q-th percentile among n
// sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q-th percentile of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank median of xs.
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 50)
}

// latencySummary is an open-loop phase's latency distribution.
type latencySummary struct {
	Samples int
	// Windows is how many windows the p99 median was taken over (1 = the
	// samples were pooled).
	Windows int
	P50Ms   float64
	P99Ms   float64
	// TailQ is the highest percentile the sample count supports; the
	// phase is sized so it is at least 99.
	TailQ float64
}

// Windows: a phase's samples are split, in schedule order, into up to
// p50Windows windows for the median and up to p99Windows windows for
// the tail (fewer when a window would hold too few samples: 2*minTail
// for the median, 100*minTail for p99), and each reported value is the
// median over its windows. A burst of interference from outside the
// program then moves a window or two, not the reported value.
const (
	p50Windows = 10
	p99Windows = 10
)

// summarizeWindows reports the median over windows of each window's p50
// and p99. TailQ is the highest percentile one p99 window supports.
func summarizeWindows(latMs []float64) latencySummary {
	out := summarize(latMs)
	out.P50Ms, _ = windowMedian(latMs, p50Windows, 2*minTail, 50)
	var k int
	out.P99Ms, k = windowMedian(latMs, p99Windows, 100*minTail, 99)
	out.Windows = k
	out.TailQ, _ = highestSupported(len(latMs) / k)
	return out
}

// windowMedian splits xs into k = min(maxK, len(xs)/minPer) (at least
// 1) contiguous windows and returns the median of their q-th
// percentiles, and k.
func windowMedian(xs []float64, maxK, minPer int, q float64) (float64, int) {
	k := len(xs) / minPer
	if k > maxK {
		k = maxK
	}
	if k < 1 {
		k = 1
	}
	vals := make([]float64, k)
	for w := range vals {
		vals[w] = percentile(sortedCopy(xs[w*len(xs)/k:(w+1)*len(xs)/k]), q)
	}
	return median(vals), k
}

func summarize(latMs []float64) latencySummary {
	s := sortedCopy(latMs)
	q, _ := highestSupported(len(s))
	return latencySummary{
		Samples: len(s),
		Windows: 1,
		P50Ms:   percentile(s, 50),
		P99Ms:   percentile(s, 99),
		TailQ:   q,
	}
}

// tally counts attempted and failed operations from many goroutines.
// Every way an operation can go wrong — a transport error, a timeout, a
// non-2xx answer (a shed request answers 503), or a wrong answer —
// lands in failed, so error rate = failed / attempted.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
}

// add records one operation's outcome.
func (t *tally) add(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func (t *tally) counts() (attempted, failed int, first error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed, t.firstErr
}

// errorRate is failed / attempted (0 on no attempts).
func (t *tally) errorRate() float64 {
	a, f, _ := t.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// schedule is an open-loop arrival schedule: operation i is due at
// start + i*interval, whatever happened to earlier operations.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func newSchedule(start time.Time, ratePerSec float64) schedule {
	return schedule{start: start, interval: time.Duration(float64(time.Second) / ratePerSec)}
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// openSample is one open-loop operation's timing. Latency runs from the
// due time, not the send time, so a stall that delays later sends is
// charged to every operation it delayed; lag is how late the generator
// actually sent.
type openSample struct {
	op      int // index in the schedule
	latency time.Duration
	lag     time.Duration
}

func newOpenSample(op int, due, sent, done time.Time) openSample {
	lag := sent.Sub(due)
	if lag < 0 {
		lag = 0
	}
	return openSample{op: op, latency: done.Sub(due), lag: lag}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
