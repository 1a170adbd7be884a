package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/serve"
	"repro/internal/sparse"
)

func TestHighestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // median rank 10 leaves 9 beyond it
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true}, // p99 rank 990 leaves 9 beyond it
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	}
	for _, c := range cases {
		got, ok := highestSupported(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestSupported(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok {
			if beyond := c.n - rank(c.n, got); beyond < minTail {
				t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, got, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	s := summarize(xs)
	if s.Samples != 1000 || s.TailQ != 99 || s.P99Ms != 990 {
		t.Errorf("summarize = %+v", s)
	}
}

// A stall delays every operation queued behind it. Timing from the due
// time charges the stall to each of them; timing from the send would
// report only the one slow operation (coordinated omission).
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	s := newSchedule(start, 1000) // one operation per ms
	if s.due(5) != start.Add(5*time.Millisecond) {
		t.Fatalf("due(5) = %v", s.due(5))
	}
	// Operation 3 is due at 3ms but its connection only frees at 10ms;
	// it then takes 1ms.
	due := s.due(3)
	got := newOpenSample(3, due, start.Add(10*time.Millisecond), start.Add(11*time.Millisecond))
	if got.latency != 8*time.Millisecond {
		t.Errorf("latency = %v, want 8ms from the due time", got.latency)
	}
	if got.lag != 7*time.Millisecond {
		t.Errorf("generator lag = %v, want 7ms", got.lag)
	}
	// Sending early (timer slack) is not negative lag.
	early := newOpenSample(3, due, due.Add(-time.Microsecond), due.Add(time.Millisecond))
	if early.lag != 0 {
		t.Errorf("lag = %v for an early send, want 0", early.lag)
	}
}

// One connection and a 20ms stall on the first operation: every
// operation due during the stall must report the wait.
func TestRunOpenChargesStallsToLaterOperations(t *testing.T) {
	var tl tally
	s := newSchedule(time.Now().Add(5*time.Millisecond), 500) // every 2ms
	samples := runOpen(s, 5, 1, nil, func(w, i int) (time.Time, error) {
		if i == 0 {
			time.Sleep(20 * time.Millisecond)
		}
		return time.Now(), nil
	}, &tl)
	if len(samples) != 5 {
		t.Fatalf("%d samples, want 5", len(samples))
	}
	for i, smp := range samples[1:] {
		// Operation i+1 was due at 2(i+1)ms but could not start before 20ms.
		if min := 20*time.Millisecond - time.Duration(2*(i+1))*time.Millisecond; smp.latency < min-time.Millisecond {
			t.Errorf("op %d latency %v, want >= %v", i+1, smp.latency, min)
		}
		if smp.lag <= 0 {
			t.Errorf("op %d lag %v, want > 0", i+1, smp.lag)
		}
	}
}

func TestErrorRateCountsFailuresAndShedRequests(t *testing.T) {
	// A server that sheds every third request with 503, as serve does
	// at capacity, and fails every fifth with a broken answer.
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch k := n.Add(1); {
		case k%3 == 0:
			http.Error(w, `{"error":"server at capacity, retry later"}`, http.StatusServiceUnavailable)
		case k%5 == 0:
			w.Write([]byte("{not json"))
		default:
			w.Write([]byte(`{"format":"CSR","label":1,"cluster":2,"arch":"turing"}`))
		}
	}))
	defer srv.Close()
	rep := newReport()
	exp := expected{{{Format: "CSR", Label: 1, Cluster: 2}}}
	sess := &session{hc: srv.Client(), exp: exp, rep: rep}
	op := plannedOp{kind: kindMatrix, arch: 0, pats: []int32{0}}
	base := strings.TrimPrefix(srv.URL, "http://")
	var tl tally
	for i := 0; i < 15; i++ {
		status, data, err := sess.post(base, "/v1/predict/matrix", "", []byte("x"))
		if err == nil {
			err = sess.check(status, data, op)
		}
		tl.add(err)
	}
	// Requests 3, 6, 9, 12, 15 are shed; 5 and 10 are broken.
	if a, f, _ := tl.counts(); a != 15 || f != 7 {
		t.Fatalf("attempted %d failed %d, want 15 and 7", a, f)
	}
	if got := tl.errorRate(); math.Abs(got-7.0/15) > 1e-12 {
		t.Errorf("error rate %v, want 7/15", got)
	}
	// A transport error is a failure too.
	srv.Close()
	_, _, err := sess.post(base, "/v1/predict/matrix", "", []byte("x"))
	tl.add(err)
	if _, f, _ := tl.counts(); f != 8 {
		t.Errorf("failed %d after a transport error, want 8", f)
	}
	if rep.gateFailure() != nil {
		t.Errorf("shed and broken answers are failures, not wrong answers: gate %v", rep.gateFailure())
	}
}

// The correctness self-test: a corrupted expected answer must fail the
// gate even though the server answered correctly.
func TestCorruptedExpectedAnswerFailsTheGate(t *testing.T) {
	answer := []byte(`{"format":"CSR","label":1,"cluster":2,"arch":"turing"}`)
	good := serve.Prediction{Format: "CSR", Label: 1, Cluster: 2}
	op := plannedOp{kind: kindMatrix, arch: 0, pats: []int32{0}}

	rep := newReport()
	sess := &session{exp: expected{{good}}, rep: rep}
	if err := sess.check(http.StatusOK, answer, op); err != nil || rep.gateFailure() != nil {
		t.Fatalf("correct answer rejected: %v / %v", err, rep.gateFailure())
	}
	corrupt := good
	corrupt.Label = -1
	sess.exp = expected{{corrupt}}
	if err := sess.check(http.StatusOK, answer, op); err == nil {
		t.Fatal("answer accepted against a corrupted expectation")
	}
	if rep.gateFailure() == nil {
		t.Fatal("corrupted expectation did not fail the gate")
	}
}

func TestOfflineDigestGate(t *testing.T) {
	out := []byte("tables")
	if err := checkDigest(out, digest(out)); err != nil {
		t.Fatalf("matching digest rejected: %v", err)
	}
	if err := checkDigest(out, "corrupted-"+digest(out)); err == nil {
		t.Fatal("corrupted digest accepted")
	}
}

// Fresh values never repeat a body, and never change the structural
// features the expected answers are computed from.
func TestFreshBodiesKeepTheFeatures(t *testing.T) {
	pats, err := genPatterns(3, 8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	r := newRNG(1, 1)
	for _, p := range pats {
		a := p.freshBody(nil, r)
		b := p.freshBody(nil, r)
		if string(a) == string(b) {
			t.Fatal("two fresh bodies are identical")
		}
		m, err := sparse.ReadMatrixMarketBytes(a)
		if err != nil {
			t.Fatal(err)
		}
		if features.Extract(m) != features.Extract(p.m) {
			t.Fatal("fresh values changed the feature vector")
		}
	}
}
