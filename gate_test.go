package repro

// The speed gates. Each BenchmarkGate* function times one path against
// its baseline on the running host and fails (b.Fatalf) when the ratio falls
// below its bound. Bounds are machine-aware: the strict bound applies
// only where the host has the cores the path needs, and elsewhere a
// floor only rejects a pathological slowdown. `ci.sh bench` runs them
// once each:
//
//	go test -run - -bench Gate -benchtime 1x .
//
// Tier-1 `go test` never runs benchmarks, so no timing enters it; the
// correctness contracts these paths carry are tier-1 tests in their
// packages. All gates share the quick corpus of benchEnv, one
// semi-supervised artifact trained on it, and one set of request
// bodies generated at another seed.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/serve"
	"repro/internal/sparse"
)

var (
	gateOnce   sync.Once
	gateArt    *serve.Artifact
	gateBodies [][]byte
	gateErr    error
)

// gateFixture returns the served artifact — K-Means vote with 16
// clusters, trained on the quick corpus's Turing labels — and the
// request bodies: 24 matrices generated off the training seed,
// serialised as MatrixMarket.
func gateFixture(b *testing.B) (*serve.Artifact, [][]byte) {
	b.Helper()
	env := benchEnv(b)
	gateOnce.Do(func() {
		d := env.Corpus.PerArch["Turing"]
		ms := make([]*sparse.CSR, len(d.Index))
		best := make([]sparse.Format, len(d.Index))
		for k, i := range d.Index {
			ms[k] = env.Corpus.Items[i].Matrix
			best[k] = sparse.KernelFormats()[d.Labels[k]]
		}
		sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: 16, Seed: 1})
		if err != nil {
			gateErr = err
			return
		}
		gateArt = serve.NewSemisupArtifact(sel.Model(), d.Arch.Name)
		items, err := dataset.Generate(dataset.Config{
			Seed: 99, BaseCount: 24, Scale: 0.5, DropELLFailures: true,
		})
		if err != nil {
			gateErr = err
			return
		}
		for _, it := range items {
			var buf bytes.Buffer
			if err := sparse.WriteMatrixMarket(&buf, it.Matrix); err != nil {
				gateErr = err
				return
			}
			gateBodies = append(gateBodies, buf.Bytes())
		}
	})
	if gateErr != nil {
		b.Fatalf("building the gate fixture: %v", gateErr)
	}
	return gateArt, gateBodies
}

// gateServer serves the fixture artifact under cfg on a loopback
// listener and returns its base URL.
func gateServer(b *testing.B, art *serve.Artifact, cfg serve.Config) string {
	b.Helper()
	srv, err := serve.NewServer(art, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	return ts.URL
}

// gatePost posts one MatrixMarket body (or a text-form batch) and
// returns the answered format ("" for a batch). A non-200 answer or a
// failed batch item is an error.
func gatePost(client *http.Client, url string, body []byte) (string, error) {
	resp, err := client.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var ans struct {
		Format string `json:"format"`
		Errors int    `json:"errors"`
		Error  string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		return "", fmt.Errorf("POST %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK || ans.Errors != 0 {
		return "", fmt.Errorf("POST %s: %s (%d item errors) %s", url, resp.Status, ans.Errors, ans.Error)
	}
	return ans.Format, nil
}

// bestOf runs pass rounds times and keeps the fastest wall time:
// scheduler noise and GC pauses only ever add time.
func bestOf(rounds int, pass func()) time.Duration {
	var best time.Duration
	for r := 0; r < rounds; r++ {
		start := time.Now()
		pass()
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// p50 is the nearest-rank median of durs.
func p50(durs []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)-1)/2]
}

// perBodyMin posts every body once to warm up, then rounds more times,
// and returns each body's fastest latency and its answered format.
// Passing several URLs interleaves them round by round, so slow drift
// of the host lands on every server alike.
func perBodyMin(b *testing.B, client *http.Client, bodies [][]byte, rounds int, urls ...string) ([][]time.Duration, [][]string) {
	b.Helper()
	lat := make([][]time.Duration, len(urls))
	formats := make([][]string, len(urls))
	for u := range urls {
		lat[u] = make([]time.Duration, len(bodies))
		formats[u] = make([]string, len(bodies))
	}
	for r := -1; r < rounds; r++ {
		for u, url := range urls {
			for i, body := range bodies {
				start := time.Now()
				f, err := gatePost(client, url, body)
				d := time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				if r < 0 {
					continue // warmup
				}
				if lat[u][i] == 0 || d < lat[u][i] {
					lat[u][i] = d
				}
				formats[u][i] = f
			}
		}
	}
	return lat, formats
}

// renderTables renders Tables 3-8 with the scheduler and the shared obs
// pool capped at workers.
func renderTables(env *eval.Env, workers int) (string, error) {
	prev := obs.SetMaxWorkers(workers)
	defer obs.SetMaxWorkers(prev)
	opt := eval.QuickOptions()
	opt.Workers = workers
	ctx := context.Background()
	var buf bytes.Buffer
	if err := eval.RenderTable3(&buf, eval.Table3(env)); err != nil {
		return "", err
	}
	rows4, err := eval.Table4(ctx, env, opt)
	if err != nil {
		return "", err
	}
	if err := eval.RenderTable4(&buf, rows4); err != nil {
		return "", err
	}
	rows5, err := eval.Table5(ctx, env, opt)
	if err != nil {
		return "", err
	}
	if err := eval.RenderTable5(&buf, rows5); err != nil {
		return "", err
	}
	rows6, err := eval.Table6(ctx, env, opt)
	if err != nil {
		return "", err
	}
	if err := eval.RenderTable6(&buf, rows6); err != nil {
		return "", err
	}
	rows7, err := eval.Table7(ctx, env, opt)
	if err != nil {
		return "", err
	}
	if err := eval.RenderTable7(&buf, rows7); err != nil {
		return "", err
	}
	if err := eval.RenderTable8(&buf, eval.Table8(env)); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// BenchmarkGateParallelTables times Tables 3-8 at one worker against
// eight. Gate: 3x with >= 8 CPUs; on smaller hosts the oversubscribed
// workers share the same cores, so only a slowdown below 0.80x fails.
// The two renderings must also be byte-identical.
func BenchmarkGateParallelTables(b *testing.B) {
	env := benchEnv(b)
	const workers = 8
	timed := func(w int) (string, time.Duration) {
		start := time.Now()
		out, err := renderTables(env, w)
		if err != nil {
			b.Fatal(err)
		}
		return out, time.Since(start)
	}
	gate := 0.80
	if runtime.NumCPU() >= workers {
		gate = 3.0
	}
	for i := 0; i < b.N; i++ {
		seqOut, seqDur := timed(1)
		parOut, parDur := timed(workers)
		if seqOut != parOut {
			b.Fatalf("tables at %d workers differ from the sequential rendering", workers)
		}
		speedup := seqDur.Seconds() / parDur.Seconds()
		b.ReportMetric(speedup, "speedup")
		if speedup < gate {
			b.Fatalf("parallel tables speedup %.2fx below the %.2fx gate (%d CPUs)", speedup, gate, runtime.NumCPU())
		}
	}
}

// BenchmarkGateParse times the streaming MatrixMarket reader against
// the byte-slice fast path over the request bodies, best of five
// passes each. Gate: 3x faster, and at most 10% of the streaming
// reader's heap allocations (runtime Mallocs over one pass).
func BenchmarkGateParse(b *testing.B) {
	_, bodies := gateFixture(b)
	ps := sparse.GetParseScratch()
	defer sparse.PutParseScratch(ps)
	stream := func() {
		for _, body := range bodies {
			if _, err := sparse.ReadMatrixMarket(bytes.NewReader(body)); err != nil {
				b.Fatal(err)
			}
		}
	}
	fast := func() {
		for _, body := range bodies {
			if _, err := sparse.ReadMatrixMarketBytesScratch(body, ps); err != nil {
				b.Fatal(err)
			}
		}
	}
	mallocs := func(pass func()) float64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs)
	}
	for i := 0; i < b.N; i++ {
		speedup := bestOf(5, stream).Seconds() / bestOf(5, fast).Seconds()
		allocFrac := mallocs(fast) / mallocs(stream)
		b.ReportMetric(speedup, "speedup")
		b.ReportMetric(allocFrac, "alloc-frac")
		if speedup < 3.0 {
			b.Fatalf("fast-path parse speedup %.2fx below the 3.00x gate", speedup)
		}
		if allocFrac > 0.10 {
			b.Fatalf("fast path allocates %.1f%% of the streaming reader's allocations; gate is 10%%", 100*allocFrac)
		}
	}
}

// BenchmarkGateFeatMemo compares the repeat-body p50 (per-body best of
// three rounds) of a server with the feature memo on against one with
// it off. Gate: 1.2x with >= 4 CPUs; on a starved host per-request
// overhead dominates, so only a slowdown below 0.80x fails.
func BenchmarkGateFeatMemo(b *testing.B) {
	art, bodies := gateFixture(b)
	off := gateServer(b, art, serve.Config{FeatMemoSize: -1}) + "/v1/predict/matrix"
	on := gateServer(b, art, serve.Config{}) + "/v1/predict/matrix"
	client := &http.Client{Timeout: time.Minute}
	gate := 0.80
	if runtime.NumCPU() >= 4 {
		gate = 1.2
	}
	for i := 0; i < b.N; i++ {
		offLat, _ := perBodyMin(b, client, bodies, 3, off)
		onLat, _ := perBodyMin(b, client, bodies, 3, on)
		speedup := p50(offLat[0]).Seconds() / p50(onLat[0]).Seconds()
		b.ReportMetric(speedup, "p50-speedup")
		if speedup < gate {
			b.Fatalf("feature-memo p50 speedup %.2fx below the %.2fx gate (%d CPUs)", speedup, gate, runtime.NumCPU())
		}
	}
}

// BenchmarkGateTracing compares the p50 (per-body best of five
// interleaved rounds) of a server with request tracing on, the
// default, against one with tracing off; both recompute every request.
// Gate: tracing costs at most 5% at p50, and changes no answer.
func BenchmarkGateTracing(b *testing.B) {
	art, bodies := gateFixture(b)
	off := gateServer(b, art, serve.Config{FeatMemoSize: -1, TraceCapacity: -1, SlowRequest: -1, TraceSample: -1})
	on := gateServer(b, art, serve.Config{FeatMemoSize: -1})
	client := &http.Client{Timeout: time.Minute}
	for i := 0; i < b.N; i++ {
		lat, formats := perBodyMin(b, client, bodies, 5, off+"/v1/predict/matrix", on+"/v1/predict/matrix")
		for k := range bodies {
			if formats[0][k] != formats[1][k] {
				b.Fatalf("body %d: traced server answered %q, untraced %q", k, formats[1][k], formats[0][k])
			}
		}
		overhead := p50(lat[1]).Seconds()/p50(lat[0]).Seconds() - 1
		b.ReportMetric(overhead, "p50-overhead")
		if overhead > 0.05 {
			b.Fatalf("tracing p50 overhead %.1f%% above the 5%% budget", 100*overhead)
		}
	}
}

// concurrentWallTime posts every request once from workers goroutines
// and returns the wall time of the whole pass.
func concurrentWallTime(client *http.Client, url func(i int) string, reqs [][]byte, workers int) (time.Duration, error) {
	idx := make(chan int)
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if _, err := gatePost(client, url(i), reqs[i]); err != nil {
					errc <- err
					for range idx { // drain so the sender finishes
					}
					return
				}
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	close(errc)
	return time.Since(start), <-errc
}

// BenchmarkGateFleet times a concurrent client (six workers) through
// the proxy over one replica against the proxy over three, best of
// three rounds; every replica is serial (MaxConcurrent 1) with the
// feature memo off, so added throughput can only come from the ring
// spreading load. Gate: 0.5x per replica when the host has more CPUs
// than replicas; otherwise the replicas time-share the same cores and
// only a slowdown below 0.80x fails.
func BenchmarkGateFleet(b *testing.B) {
	art, bodies := gateFixture(b)
	const replicas = 3
	addrs := make([]string, replicas)
	for i := range addrs {
		addrs[i] = strings.TrimPrefix(gateServer(b, art, serve.Config{FeatMemoSize: -1, MaxConcurrent: 1}), "http://")
	}
	// Hedging off: with serial replicas queueing is expected, and a
	// hedge would double the load.
	front := func(fleet []string) string {
		p, err := proxy.New(proxy.Config{Replicas: fleet, HedgeAfter: time.Hour, Timeout: 5 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		p.CheckAll(context.Background())
		ts := httptest.NewServer(p.Handler())
		b.Cleanup(ts.Close)
		return ts.URL + "/v1/predict/matrix"
	}
	one, fleet := front(addrs[:1]), front(addrs)
	client := &http.Client{Timeout: 5 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 4 * replicas}}
	load := func(url string) time.Duration {
		var best time.Duration
		for r := -1; r < 3; r++ { // round -1 warms the route
			d, err := concurrentWallTime(client, func(int) string { return url }, bodies, 2*replicas)
			if err != nil {
				b.Fatal(err)
			}
			if r >= 0 && (best == 0 || d < best) {
				best = d
			}
		}
		return best
	}
	gate := 0.80
	if runtime.NumCPU() > replicas {
		gate = 0.5 * replicas
	}
	for i := 0; i < b.N; i++ {
		speedup := load(one).Seconds() / load(fleet).Seconds()
		b.ReportMetric(speedup, "speedup")
		if speedup < gate {
			b.Fatalf("fleet speedup %.2fx below the %.2fx gate (%d CPUs, %d replicas)", speedup, gate, runtime.NumCPU(), replicas)
		}
	}
}

// BenchmarkGateConcurrentServe times one request mix — 16 single
// matrices and two text-form batches of four — sent to one server by
// one client, against the same mix from four concurrent clients, after
// a warm-up pass fills the feature memo. Gate: 1.5x with >= 4 CPUs;
// on smaller hosts only a slowdown below 0.60x fails.
func BenchmarkGateConcurrentServe(b *testing.B) {
	art, bodies := gateFixture(b)
	const singles, batchSize = 16, 4
	reqs := bodies[:singles:singles]
	for lo := singles; lo+batchSize <= len(bodies); lo += batchSize {
		reqs = append(reqs, bytes.Join(bodies[lo:lo+batchSize], nil))
	}
	base := gateServer(b, art, serve.Config{MaxBatchItems: batchSize})
	url := func(i int) string {
		if i < singles {
			return base + "/v1/predict/matrix"
		}
		return base + "/v1/predict/batch"
	}
	client := &http.Client{Timeout: time.Minute}
	pass := func(workers int) time.Duration {
		d, err := concurrentWallTime(client, url, reqs, workers)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	pass(1)
	gate := 0.60
	if runtime.NumCPU() >= 4 {
		gate = 1.5
	}
	for i := 0; i < b.N; i++ {
		speedup := pass(1).Seconds() / pass(4).Seconds()
		b.ReportMetric(speedup, "speedup")
		if speedup < gate {
			b.Fatalf("concurrent serving speedup %.2fx below the %.2fx gate (%d CPUs)", speedup, gate, runtime.NumCPU())
		}
	}
}
