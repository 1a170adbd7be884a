package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// runOpen drives n operations on an open-loop schedule over conns
// workers (one connection each). Each worker claims the next operation,
// prepares it (prep may be nil; its cost is not timed), waits for its
// due time and runs it; a worker that falls behind sends at once, and
// the wait shows up as lag and as latency, never as a lower offered
// rate. op returns when its answer was in hand. Failed operations count
// in t and are left out of the returned samples.
func runOpen(s schedule, n, conns int, prep func(w, i int), op func(w, i int) (time.Time, error), t *tally) []openSample {
	samples := make([]openSample, n)
	okAt := make([]bool, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if prep != nil {
					prep(w, i)
				}
				due := s.due(i)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				done, err := op(w, i)
				t.add(err)
				if err == nil {
					samples[i] = newOpenSample(i, due, sent, done)
					okAt[i] = true
				}
			}
		}(w)
	}
	wg.Wait()
	out := samples[:0]
	for i, ok := range okAt {
		if ok {
			out = append(out, samples[i])
		}
	}
	return out
}

// runClosed keeps conns workers sending back to back for dur and
// returns the throughput of each of windows equal time windows, in
// predictions per second (op reports how many one call made: 1, or a
// batch's item count), and the total predictions completed.
func runClosed(dur time.Duration, windows, conns int, op func(w, iter int) (int, error), t *tally) ([]float64, int) {
	start := time.Now()
	window := dur / time.Duration(windows)
	counts := make([][]int, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		counts[w] = make([]int, windows)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; ; iter++ {
				if time.Since(start) >= dur {
					return
				}
				k, err := op(w, iter)
				t.add(err)
				if at := int(time.Since(start) / window); err == nil && at < windows {
					counts[w][at] += k
				}
			}
		}(w)
	}
	wg.Wait()
	rates := make([]float64, windows)
	total := 0
	for i := range rates {
		n := 0
		for w := range counts {
			n += counts[w][i]
		}
		total += n
		rates[i] = float64(n) / window.Seconds()
	}
	return rates, total
}
