package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/features"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// loadCycles is how many open-then-closed cycles a run's load is cut
// into, and closedWindows how many throughput windows its closed-loop
// stretches give in all; throughput is the median over them.
const (
	loadCycles    = 5
	closedWindows = 10
)

// catalogSeed fixes the pattern catalog, so runs with different
// workload seeds measure the same population of matrices; the workload
// seed drives the request stream over it (kinds, arches, pattern
// draws, values, feedback).
const catalogSeed = 2021

// onlineSpec is one serving workload.
type onlineSpec struct {
	name string
	// replicas behind the front door: 1 = clients talk to the replica
	// directly; more = clients talk to proxy.Run fronting them.
	replicas int
	// patterns is the generator's base count for request patterns and
	// scale their size.
	patterns int
	scale    float64
	// rate is the open-loop offered rate in operations per second, held
	// fixed at about a third of the closed-loop capacity measured when the
	// benchmark was defined (README.md).
	rate float64
	// Request mix: shares of batch and features requests (the rest are
	// /v1/predict/matrix), the batch size, and the share of predict
	// operations followed by a /v1/feedback report.
	batchShare, featuresShare, feedbackShare float64
	batchSize                                int
	// zipf > 0 draws patterns Zipf-skewed with this exponent and sends
	// each pattern's body unchanged; 0 draws uniformly and refreshes
	// every value, so no body ever repeats.
	zipf float64
}

var coldDirect = onlineSpec{
	name: "cold-direct", replicas: 1, patterns: 300, scale: 0.5, rate: 280,
	batchShare: 0.15, feedbackShare: 0.25, batchSize: 4,
}

var hotFleet = onlineSpec{
	name: "hot-fleet", replicas: 3, patterns: 64, scale: 0.3, rate: 700,
	featuresShare: 0.2, zipf: 1.1,
}

func runColdDirect(cfg runConfig) (*report, error) { return runOnline(cfg, coldDirect) }
func runHotFleet(cfg runConfig) (*report, error)   { return runOnline(cfg, hotFleet) }

// archNames are the served arches, as the registry names them.
var archNames = []string{"turing", "pascal", "volta"}

type opKind uint8

const (
	kindMatrix opKind = iota
	kindBatch
	kindFeatures
)

// plannedOp is one operation of the request stream.
type plannedOp struct {
	kind     opKind
	arch     int     // index into archNames
	pats     []int32 // one pattern, or batchSize for a batch
	feedback bool
}

// planner draws operations from a workload's mix.
type planner struct {
	spec onlineSpec
	n    int
	cdf  []float64 // Zipf CDF over patterns (nil = uniform)
}

func newPlanner(spec onlineSpec, n int) *planner {
	p := &planner{spec: spec, n: n}
	if spec.zipf > 0 {
		sum := 0.0
		p.cdf = make([]float64, n)
		for i := range p.cdf {
			sum += 1 / math.Pow(float64(i+1), spec.zipf)
			p.cdf[i] = sum
		}
		for i := range p.cdf {
			p.cdf[i] /= sum
		}
	}
	return p
}

func (p *planner) pattern(r *rng) int32 {
	if p.cdf == nil {
		return int32(r.intn(p.n))
	}
	return int32(sort.SearchFloat64s(p.cdf, r.float()))
}

func (p *planner) draw(r *rng) plannedOp {
	op := plannedOp{arch: r.intn(len(archNames))}
	switch u := r.float(); {
	case u < p.spec.batchShare:
		op.kind = kindBatch
		for k := 0; k < p.spec.batchSize; k++ {
			op.pats = append(op.pats, p.pattern(r))
		}
	case u < p.spec.batchShare+p.spec.featuresShare:
		op.kind = kindFeatures
		op.pats = []int32{p.pattern(r)}
	default:
		op.pats = []int32{p.pattern(r)}
	}
	op.feedback = r.float() < p.spec.feedbackShare
	return op
}

// recurShare is the share of predictions whose pattern already
// appeared earlier in plan.
func recurShare(plan []plannedOp) float64 {
	seen := map[int32]bool{}
	recur, total := 0, 0
	for _, op := range plan {
		for _, p := range op.pats {
			if seen[p] {
				recur++
			}
			seen[p] = true
			total++
		}
	}
	return float64(recur) / float64(total)
}

// trained is the three served artifacts and what building them cost.
type trained struct {
	arts       map[string]*serve.Artifact
	corpus     time.Duration
	fit        time.Duration
	items      int
	infeasible int
}

// trainArtifacts trains one semi-supervised artifact per arch the way
// `spmvselect train -quick` does (K-Means vote, 32 clusters, training
// baseline attached, no cascade), sharing one generated corpus.
func trainArtifacts(rec *recorder) (*trained, error) {
	t0 := time.Now()
	id := rec.begin(0, "dataset.generate", -1)
	items, err := dataset.Generate(eval.QuickOptions().Dataset)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("training corpus: %w", err)
	}
	profiles := make([]gpusim.Profile, len(items))
	for i, it := range items {
		id := rec.begin(int64(i+1), "gpusim.profile", -1)
		profiles[i] = gpusim.NewProfile(it.Matrix)
		rec.end(id)
	}
	out := &trained{arts: map[string]*serve.Artifact{}, items: len(items)}
	type labelled struct {
		ms   []*sparse.CSR
		best []sparse.Format
		y    []int
	}
	sets := map[string]*labelled{}
	for _, a := range gpusim.Archs() {
		l := &labelled{}
		for i, it := range items {
			id := rec.begin(int64(i+1), "gpusim.measure", -1)
			meas := a.Measure(it.Name, profiles[i])
			rec.end(id)
			bf, ok := meas.BestFormat()
			if !meas.Feasible() || !ok {
				out.infeasible++
				continue
			}
			l.ms = append(l.ms, it.Matrix)
			l.best = append(l.best, bf)
			l.y = append(l.y, meas.Best)
		}
		sets[a.Name] = l
	}
	out.corpus = time.Since(t0)
	t1 := time.Now()
	for _, a := range gpusim.Archs() {
		l := sets[a.Name]
		sel, err := core.TrainSelector(l.ms, l.best, core.Options{NumClusters: 32, Seed: 1})
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", a.Name, err)
		}
		art := serve.NewSemisupArtifact(sel.Model(), a.Name)
		art.Baseline = serve.ComputeBaseline(features.Matrix(features.ExtractAll(l.ms)), l.y, sparse.NumKernelFormats)
		out.arts[serve.NormalizeArch(a.Name)] = art
	}
	out.fit = time.Since(t1)
	return out, nil
}

// fixture is one running topology: registry-backed replicas under
// zero-value serve.Config, and for fleets proxy.Run under zero-value
// proxy.Config.
type fixture struct {
	regs    []*registry.Registry
	servers []*serve.Server
	addrs   []string
	front   string
	prx     *proxy.Proxy
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// startFixture saves the artifacts under dir and starts the topology.
func startFixture(spec onlineSpec, dir string, arts map[string]*serve.Artifact) (*fixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := map[string]string{}
	for _, a := range archNames {
		paths[a] = filepath.Join(dir, a+".gob")
		if err := serve.SaveFile(paths[a], arts[a]); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fixture{cancel: cancel}
	errc := make(chan error, spec.replicas+1)
	run := func(start func(ready func(string)) error) (string, error) {
		ready := make(chan string, 1)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := start(func(a string) { ready <- a }); err != nil {
				errc <- err
			}
		}()
		select {
		case a := <-ready:
			return a, nil
		case err := <-errc:
			return "", err
		}
	}
	for i := 0; i < spec.replicas; i++ {
		reg := registry.New()
		for _, a := range archNames {
			if err := reg.Configure(a, paths[a]); err != nil {
				f.stop()
				return nil, err
			}
		}
		if err := reg.LoadAll(); err != nil {
			f.stop()
			return nil, err
		}
		srv, err := serve.NewBackendServer(reg, serve.Config{})
		if err != nil {
			f.stop()
			return nil, err
		}
		addr, err := run(func(ready func(string)) error { return srv.Run(ctx, "127.0.0.1:0", ready) })
		if err != nil {
			f.stop()
			return nil, err
		}
		f.regs = append(f.regs, reg)
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, addr)
	}
	f.front = f.addrs[0]
	if spec.replicas > 1 {
		// proxy.Run, not Handler alone: Run probes replica health and
		// admits them to the ring, without which every request answers
		// 502 "no healthy replicas".
		p, err := proxy.New(proxy.Config{Replicas: f.addrs})
		if err != nil {
			f.stop()
			return nil, err
		}
		addr, err := run(func(ready func(string)) error { return p.Run(ctx, "127.0.0.1:0", ready) })
		if err != nil {
			f.stop()
			return nil, err
		}
		if st := p.Fleet(); st.RingSize != spec.replicas {
			f.stop()
			return nil, fmt.Errorf("proxy ring holds %d of %d replicas", st.RingSize, spec.replicas)
		}
		f.prx, f.front = p, addr
	}
	return f, nil
}

// stop shuts every server down and waits for each to return.
func (f *fixture) stop() {
	f.cancel()
	f.wg.Wait()
}

// expected holds the reference answer for every (arch, pattern):
// Artifact.PredictMatrix on the pattern's matrix. Values never matter —
// the 21 features are structural.
type expected [][]serve.Prediction

func computeExpected(arts map[string]*serve.Artifact, pats []*pattern, corrupt bool) (expected, error) {
	exp := make(expected, len(archNames))
	for a, name := range archNames {
		for _, p := range pats {
			pred, err := arts[name].PredictMatrix(p.m)
			if err != nil {
				return nil, fmt.Errorf("reference answer: %w", err)
			}
			exp[a] = append(exp[a], pred)
		}
	}
	if corrupt {
		for a := range exp {
			for i := range exp[a] {
				exp[a][i].Label = -1
			}
		}
	}
	return exp, nil
}

// session is the client side: an HTTP client with at most conns
// connections, the inputs, and the reference answers.
type session struct {
	spec     onlineSpec
	hc       *http.Client
	pats     []*pattern
	featBody [][][]byte // [arch][pattern] /v1/predict/features JSON bodies
	exp      expected
	formats  []string
	idPrefix string
	ids      atomic.Int64
	rep      *report
}

func newSession(spec onlineSpec, conns int, pats []*pattern, exp expected, seed int64, rep *report) (*session, error) {
	s := &session{
		spec: spec,
		hc: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
		pats: pats, exp: exp, formats: serve.KernelFormatNames(),
		idPrefix: "pb-" + strconv.FormatInt(seed, 10) + "-", rep: rep,
	}
	s.featBody = make([][][]byte, len(archNames))
	for a, name := range archNames {
		for _, p := range pats {
			b, err := json.Marshal(struct {
				Features []float64 `json:"features"`
				Arch     string    `json:"arch"`
			}{features.Extract(p.m).Slice(), name})
			if err != nil {
				return nil, err
			}
			s.featBody[a] = append(s.featBody[a], b)
		}
	}
	return s, nil
}

// worker is one connection's client state: its value stream and
// reusable body buffers.
type worker struct {
	r         *rng
	body, one []byte
}

// build renders op's request: path and body.
func (s *session) build(w *worker, op plannedOp) (string, []byte) {
	arch := archNames[op.arch]
	switch op.kind {
	case kindFeatures:
		return "/v1/predict/features", s.featBody[op.arch][op.pats[0]]
	case kindBatch:
		w.body = w.body[:0]
		for _, p := range op.pats {
			w.one = s.pats[p].freshBody(w.one, w.r)
			w.body = append(w.body, w.one...)
		}
		return "/v1/predict/batch?arch=" + arch, w.body
	}
	p := s.pats[op.pats[0]]
	if s.spec.zipf > 0 {
		return "/v1/predict/matrix?arch=" + arch, p.body
	}
	w.body = p.freshBody(w.body, w.r)
	return "/v1/predict/matrix?arch=" + arch, w.body
}

// post sends one request and reads the whole answer.
func (s *session) post(base, path, id string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, "http://"+base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

type singleAnswer struct {
	serve.Prediction
	Arch string `json:"arch"`
}

type batchAnswer struct {
	Results []struct {
		serve.Prediction
		Error string `json:"error"`
	} `json:"results"`
}

// check compares an answer with the reference; a mismatch is a failed
// operation and a failed correctness gate.
func (s *session) check(status int, data []byte, op plannedOp) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, data)
	}
	exp := s.exp[op.arch]
	if op.kind == kindBatch {
		var b batchAnswer
		if err := json.Unmarshal(data, &b); err != nil {
			return fmt.Errorf("decoding batch answer: %w", err)
		}
		if len(b.Results) != len(op.pats) {
			return fmt.Errorf("batch answered %d of %d items", len(b.Results), len(op.pats))
		}
		for k, it := range b.Results {
			if it.Error != "" || it.Prediction != exp[op.pats[k]] {
				err := fmt.Errorf("batch item %d (pattern %d, %s): got %+v %q, want %+v",
					k, op.pats[k], archNames[op.arch], it.Prediction, it.Error, exp[op.pats[k]])
				s.rep.gate(err)
				return err
			}
		}
		return nil
	}
	var a singleAnswer
	if err := json.Unmarshal(data, &a); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if want := exp[op.pats[0]]; a.Prediction != want || a.Arch != archNames[op.arch] {
		err := fmt.Errorf("pattern %d on %s: got %+v (arch %s), want %+v", op.pats[0], archNames[op.arch], a.Prediction, a.Arch, want)
		s.rep.gate(err)
		return err
	}
	return nil
}

// feedback reports the gpusim kernel times of the answered matrix
// (item k of a batch); every report must be accepted.
func (s *session) feedback(base, id string, op plannedOp, k int) error {
	times := s.pats[op.pats[k]].timesMs[archNames[op.arch]]
	m := make(map[string]float64, len(times))
	for i, t := range times {
		m[s.formats[i]] = t
	}
	req := map[string]any{"request_id": id, "times_ms": m}
	if op.kind == kindBatch {
		req["item"] = k
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	status, data, err := s.post(base, "/v1/feedback", "", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		err := fmt.Errorf("feedback for %s not accepted: status %d: %.200s", id, status, data)
		s.rep.gate(err)
		return err
	}
	return nil
}

// do builds and runs one planned operation against base.
func (s *session) do(base string, w *worker, op plannedOp) (time.Time, int, error) {
	path, body := s.build(w, op)
	return s.send(base, w, op, path, body)
}

// send runs one built operation: the prediction, then its feedback
// report when planned. done is when the prediction's answer was in
// hand; items is the number of predictions it made.
func (s *session) send(base string, w *worker, op plannedOp, path string, body []byte) (done time.Time, items int, err error) {
	id := s.idPrefix + strconv.FormatInt(s.ids.Add(1), 10)
	status, data, err := s.post(base, path, id, body)
	done = time.Now()
	if err == nil {
		err = s.check(status, data, op)
	}
	if err != nil {
		return done, 0, err
	}
	if op.feedback {
		k := 0
		if op.kind == kindBatch {
			k = w.r.intn(len(op.pats))
		}
		err = s.feedback(base, id, op, k)
	}
	return done, len(op.pats), err
}

// counters reads the obs.Default counters the per-layer metrics are
// deltas of. The registry is never Reset (that detaches package-level
// handles); runs read before/after differences instead.
var counterNames = []string{
	"serve/cache/hits", "serve/cache/misses", "serve/featmemo/hits", "serve/featmemo/misses",
	"serve/rejected", "serve/errors", "serve/feedback/accepted", "serve/feedback/rejected",
}

func readCounters() map[string]int64 {
	out := map[string]int64{}
	for _, n := range counterNames {
		out[n] = obs.Default.Counter(n).Value()
	}
	return out
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// runOnline is a serving workload: inputs from the seed, setupRounds
// fixture builds (setup_s is their median), an open-loop phase at the
// fixed rate for latency, a closed-loop phase with nproc connections
// for throughput, and in traced runs the per-layer replays.
func runOnline(cfg runConfig, spec onlineSpec) (*report, error) {
	rep := newReport()
	conns := runtime.NumCPU()
	pats, err := genPatterns(catalogSeed, spec.patterns, spec.scale)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(cfg.trace)
	workDir := filepath.Join(outDir, fmt.Sprintf("work-%d", os.Getpid()))
	defer os.RemoveAll(workDir)

	var fix *fixture
	var sess *session
	var tr *trained
	var setups, corpus, fits []float64
	for round := 0; round < setupRounds; round++ {
		if fix != nil {
			fix.stop()
			sess.hc.CloseIdleConnections()
		}
		// Spans of the training layers come from the last round only.
		roundRec := newRecorder(false)
		if round == setupRounds-1 {
			roundRec = rec
		}
		t0 := time.Now()
		tr, err = trainArtifacts(roundRec)
		if err != nil {
			return nil, err
		}
		fix, err = startFixture(spec, filepath.Join(workDir, strconv.Itoa(round)), tr.arts)
		if err != nil {
			return nil, err
		}
		exp, err := computeExpected(tr.arts, pats, cfg.corrupt)
		if err != nil {
			fix.stop()
			return nil, err
		}
		sess, err = newSession(spec, conns, pats, exp, cfg.seed, rep)
		if err != nil {
			fix.stop()
			return nil, err
		}
		if err := sess.warm(fix.front, cfg.seed); err != nil {
			fix.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		corpus = append(corpus, tr.corpus.Seconds())
		fits = append(fits, tr.fit.Seconds())
	}
	defer func() {
		fix.stop()
		sess.hc.CloseIdleConnections()
	}()
	rep.endToEnd[mSetup] = median(setups)

	before := readCounters()
	var fleetBefore proxy.FleetStatus
	if fix.prx != nil {
		fleetBefore = fix.prx.Fleet()
	}

	// The phases alternate in loadCycles cycles — an open-loop stretch
	// at the fixed offered rate, then a closed-loop stretch — so both
	// sample the host over the whole run. The open loop gets 80% of the
	// time, and at least enough operations for >= minTail samples
	// beyond p99.
	openDur := time.Duration(cfg.seconds) * time.Second * 80 / 100
	closedDur := time.Duration(cfg.seconds)*time.Second - openDur
	n := int(spec.rate * openDur.Seconds())
	if n < 100*minTail {
		n = 100 * minTail
	}
	planRNG := newRNG(cfg.seed, 1)
	pl := newPlanner(spec, len(pats))
	plan := make([]plannedOp, n)
	for i := range plan {
		plan[i] = pl.draw(planRNG)
	}
	workers := make([]*worker, conns)
	for w := range workers {
		workers[w] = &worker{r: newRNG(cfg.seed, uint64(100+w))}
	}
	var samples []openSample
	var rates []float64
	var items int
	var closedOps atomic.Int64
	for c := 0; c < loadCycles; c++ {
		part := plan[c*n/loadCycles : (c+1)*n/loadCycles]
		for _, smp := range runOpenOps(sess, fix.front, part, workers, spec.rate, &rep.ops) {
			// Batch requests load the server like any other, but their
			// latency is of four predictions; the latency metrics are
			// of single predictions.
			if part[smp.op].kind != kindBatch {
				samples = append(samples, smp)
			}
		}
		r, k := runClosed(closedDur/loadCycles, closedWindows/loadCycles, conns, func(w, iter int) (int, error) {
			closedOps.Add(1)
			_, k, err := sess.do(fix.front, workers[w], pl.draw(workers[w].r))
			return k, err
		}, &rep.ops)
		rates = append(rates, r...)
		items += k
	}
	// The training stages alone are short: more repetitions, after the
	// load so their garbage cannot reach its tail, steady their medians
	// without lengthening any one setup.
	for i := 0; i < loadCycles; i++ {
		again, err := trainArtifacts(newRecorder(false))
		if err != nil {
			return nil, err
		}
		corpus = append(corpus, again.corpus.Seconds())
		fits = append(fits, again.fit.Seconds())
	}
	rep.endToEnd[mCorpus] = median(corpus)
	rep.endToEnd[mCV] = median(fits)
	lat := make([]float64, len(samples))
	lag := make([]float64, len(samples))
	for i, s := range samples {
		lat[i], lag[i] = ms(s.latency), ms(s.lag)
	}
	ls := summarizeWindows(lat)
	if ls.TailQ < 99 {
		return nil, fmt.Errorf("open loop kept %d samples: too few for p99", ls.Samples)
	}
	rep.endToEnd[mP50], rep.endToEnd[mP99] = ls.P50Ms, ls.P99Ms
	rate := median(rates)
	rep.endToEnd[mThroughput] = rate

	after := readCounters()
	d := func(name string) int64 { return after[name] - before[name] }
	sizes := make([]float64, len(pats))
	for i, p := range pats {
		sizes[i] = float64(len(p.body)) / 1024
	}
	sort.Float64s(sizes)
	rep.notef("%s: %d patterns, body p50 %.0f KiB max %.0f KiB (%.0f%% of open-loop predictions repeat a pattern), %d connections",
		spec.name, len(pats), percentile(sizes, 50), sizes[len(sizes)-1], 100*recurShare(plan), conns)
	rep.notef("%s: open loop %.0f ops/s x %.1fs: %d samples in %d windows, p50 %.3fms p99 %.3fms (median over windows; p%g supported per window), generator lag p99 %.3fms",
		spec.name, spec.rate, openDur.Seconds(), ls.Samples, ls.Windows, ls.P50Ms, ls.P99Ms, ls.TailQ, percentile(sortedCopy(lag), 99))
	rep.notef("%s: closed loop %d predictions (%d operations) in %.1fs, median of %d windows %.0f predictions/s; error rate %.4f",
		spec.name, items, closedOps.Load(), closedDur.Seconds(), len(rates), rate, rep.ops.errorRate())
	if !cfg.trace {
		return rep, nil
	}

	lp := rep.perLayer
	lp["dataset.generate_s"] = rec.total("dataset.generate").Seconds()
	lp["dataset.items"] = float64(tr.items)
	lp["gpusim.profile_s"] = rec.total("gpusim.profile").Seconds()
	lp["gpusim.label_s"] = rec.total("gpusim.measure").Seconds()
	lp["gpusim.infeasible"] = float64(tr.infeasible)
	hits, misses := d("serve/cache/hits"), d("serve/cache/misses")
	lp["serve.cache_hit_ratio"], lp["serve.cache_lookups"] = ratio(hits, hits+misses), float64(hits+misses)
	mh, mm := d("serve/featmemo/hits"), d("serve/featmemo/misses")
	lp["serve.featmemo_hit_ratio"], lp["serve.featmemo_lookups"] = ratio(mh, mh+mm), float64(mh+mm)
	lp["serve.rejected"] = float64(d("serve/rejected"))
	lp["serve.errors"] = float64(d("serve/errors"))
	fa, fr := d("serve/feedback/accepted"), d("serve/feedback/rejected")
	lp["registry.feedback_accepted_ratio"], lp["registry.feedback_reports"] = ratio(fa, fa+fr), float64(fa+fr)
	if fix.prx != nil {
		st := fix.prx.Fleet()
		hedges := st.Hedges - fleetBefore.Hedges
		lp["proxy.hedges"] = float64(hedges)
		lp["proxy.retries"] = float64(st.Retries - fleetBefore.Retries)
		lp["proxy.hedge_win_ratio"] = ratio(st.HedgeWins-fleetBefore.HedgeWins, hedges)
	}
	lp["bench.gen_lag_p99_ms"] = percentile(sortedCopy(lag), 99)
	lp["bench.latency_samples"] = float64(ls.Samples)
	lp["bench.pattern_recur_ratio"] = recurShare(plan)
	if err := replayLayers(cfg, spec, fix, sess, tr.arts, rec, rep); err != nil {
		return nil, err
	}
	return rep, rec.writeJSONL(spanPath(cfg))
}

// runOpenOps runs plan on the open-loop schedule; each worker renders
// its next body before the operation is due.
func runOpenOps(s *session, base string, plan []plannedOp, workers []*worker, rate float64, t *tally) []openSample {
	type built struct {
		path string
		body []byte
	}
	next := make([]built, len(workers))
	sched := newSchedule(time.Now().Add(20*time.Millisecond), rate)
	return runOpen(sched, len(plan), len(workers), func(w, i int) {
		path, body := s.build(workers[w], plan[i])
		next[w] = built{path, body}
	}, func(w, i int) (time.Time, error) {
		done, _, err := s.send(base, workers[w], plan[i], next[w].path, next[w].body)
		return done, err
	}, t)
}

// warm sends a short burst before anything is timed: every hot body
// once per arch for cached workloads (filling the LRU and memo), a few
// fresh bodies per connection otherwise.
func (s *session) warm(base string, seed int64) error {
	w := &worker{r: newRNG(seed, 99)}
	var ops []plannedOp
	if s.spec.zipf > 0 {
		for a := range archNames {
			for p := range s.pats {
				ops = append(ops, plannedOp{kind: kindMatrix, arch: a, pats: []int32{int32(p)}},
					plannedOp{kind: kindFeatures, arch: a, pats: []int32{int32(p)}})
			}
		}
	} else {
		pl := newPlanner(s.spec, len(s.pats))
		for i := 0; i < 32; i++ {
			ops = append(ops, pl.draw(w.r))
		}
	}
	for _, op := range ops {
		if _, _, err := s.do(base, w, op); err != nil {
			return err
		}
	}
	return nil
}

// replayLayers is the traced run's layer replay: single-matrix bodies
// of the workload, one at a time, through the public calls —
// ReadMatrixMarketBytesScratch → Extract → Predict (without and with
// spans: the trace overhead ratio), the replica's Handler().ServeHTTP
// without a socket, the same requests over a socket straight to the
// replica, and for fleets through the proxy.
func replayLayers(cfg runConfig, spec onlineSpec, fix *fixture, s *session, arts map[string]*serve.Artifact, rec *recorder, rep *report) error {
	const count = 200
	r := newRNG(cfg.seed, 7)
	pl := newPlanner(spec, len(s.pats))
	ops := make([]plannedOp, count)
	bodies := make([][]byte, count)
	for i := range ops {
		op := pl.draw(r)
		ops[i] = plannedOp{kind: kindMatrix, arch: op.arch, pats: op.pats[:1]}
		_, b := s.build(&worker{r: r}, ops[i])
		bodies[i] = append([]byte(nil), b...)
	}

	// Layer calls, alternating untraced and traced passes.
	ps := sparse.GetParseScratch()
	defer sparse.PutParseScratch(ps)
	var scratch features.Scratch
	var bytesParsed int64
	layerPass := func(rc *recorder) (time.Duration, error) {
		t0 := time.Now()
		for i, op := range ops {
			id := rc.begin(int64(i), "sparse.parse", -1)
			m, err := sparse.ReadMatrixMarketBytesScratch(bodies[i], ps)
			rc.end(id)
			if err != nil {
				return 0, err
			}
			id = rc.begin(int64(i), "features.extract", -1)
			v := scratch.Extract(m)
			rc.end(id)
			id = rc.begin(int64(i), "serve.predict", -1)
			pred, err := arts[archNames[op.arch]].Predict(v[:])
			rc.end(id)
			if want := s.exp[op.arch][op.pats[0]]; err == nil && pred != want {
				err = fmt.Errorf("replayed pattern %d: got %+v, want %+v", op.pats[0], pred, want)
				rep.gate(err)
			}
			rep.ops.add(err)
			if rc.on {
				bytesParsed += int64(len(bodies[i]))
			}
		}
		return time.Since(t0), nil
	}
	off := newRecorder(false)
	var untraced, traced time.Duration
	for round := 0; round < 4; round++ {
		du, err := layerPass(off)
		if err != nil {
			return err
		}
		dt, err := layerPass(rec)
		if err != nil {
			return err
		}
		untraced += du
		traced += dt
	}
	if err := compareReaders(bodies, ps, rep); err != nil {
		return err
	}
	lp := rep.perLayer
	lp["bench.trace_overhead_ratio"] = traced.Seconds() / untraced.Seconds()
	lp["sparse.parse_us_p50"] = rec.p50us("sparse.parse")
	lp["sparse.parse_mb_s"] = float64(bytesParsed) / 1e6 / rec.total("sparse.parse").Seconds()
	lp["features.extract_us_p50"] = rec.p50us("features.extract")
	lp["features.extract_s"] = rec.total("features.extract").Seconds()
	lp["serve.predict_us_p50"] = rec.p50us("serve.predict")

	// The replica's handler without a socket, next to a handler over
	// the same registry with the server's request tracing off
	// (TraceCapacity -1). Each request is built afresh, so cold bodies
	// stay unique; for cached workloads each body goes through once
	// untimed first, so the replay sees the hits a ring owner would.
	w := &worker{r: newRNG(cfg.seed, 8)}
	untracedSrv, err := serve.NewBackendServer(fix.regs[0], serve.Config{TraceCapacity: -1})
	if err != nil {
		return err
	}
	handlers := map[string]http.Handler{
		"serve.handler":         fix.servers[0].Handler(),
		"serve.handler_batch":   fix.servers[0].Handler(),
		"serve.handler_notrace": untracedSrv.Handler(),
		"":                      fix.servers[0].Handler(),
	}
	serveOne := func(rc *recorder, name string, i int, op plannedOp) error {
		h := handlers[name]
		path, b := s.build(w, op)
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
		rr := httptest.NewRecorder()
		id := rc.begin(int64(i), name, -1)
		h.ServeHTTP(rr, req)
		rc.end(id)
		err := s.check(rr.Code, rr.Body.Bytes(), op)
		rep.ops.add(err)
		return err
	}
	for i, op := range ops {
		if spec.zipf > 0 {
			for _, warm := range []string{"", "serve.handler_notrace"} {
				if err := serveOne(off, warm, i, op); err != nil {
					return err
				}
			}
		}
		for _, name := range []string{"serve.handler", "serve.handler_notrace"} {
			if err := serveOne(rec, name, i, op); err != nil {
				return err
			}
		}
	}
	if spec.batchShare > 0 {
		var perItem []float64
		for i := 0; i < count/4; i++ {
			op := pl.draw(r)
			op.kind, op.feedback = kindBatch, false
			for len(op.pats) < spec.batchSize {
				op.pats = append(op.pats, pl.pattern(r))
			}
			if err := serveOne(rec, "serve.handler_batch", i, op); err != nil {
				return err
			}
		}
		for _, d := range rec.durations("serve.handler_batch") {
			perItem = append(perItem, us(d)/float64(spec.batchSize))
		}
		lp["serve.batch_item_us_p50"] = median(perItem)
	}
	handlerP50 := rec.p50us("serve.handler")
	lp["serve.handler_us_p50"] = handlerP50
	lp["serve.tracing_overhead_ratio"] = handlerP50 / rec.p50us("serve.handler_notrace")

	// Over a socket, one request at a time: straight to the replica,
	// and for fleets through the proxy, alternating per request.
	targets := []string{fix.addrs[0]}
	if fix.prx != nil {
		targets = append(targets, fix.front)
	}
	lat := make([][]float64, len(targets))
	for i, op := range ops {
		for t, target := range targets {
			path, b := s.build(w, op)
			t0 := time.Now()
			status, data, err := s.post(target, path, "", b)
			d := time.Since(t0)
			if err == nil {
				err = s.check(status, data, op)
			}
			rep.ops.add(err)
			if err != nil {
				return fmt.Errorf("replay %d to %s: %w", i, target, err)
			}
			lat[t] = append(lat[t], us(d))
		}
	}
	directP50 := median(lat[0])
	lp["serve.http_us_p50"] = directP50 - handlerP50
	if fix.prx != nil {
		lp["proxy.hop_us_p50"] = median(lat[1]) - directP50
	}
	rep.notef("%s traced: parse p50 %.1fus, extract p50 %.1fus, predict p50 %.2fus, handler p50 %.1fus, direct p50 %.1fus, trace overhead %.3f",
		spec.name, lp["sparse.parse_us_p50"], lp["features.extract_us_p50"], lp["serve.predict_us_p50"], handlerP50, directP50,
		lp["bench.trace_overhead_ratio"])
	return nil
}

// compareReaders holds the byte-level MatrixMarket fast path to the
// streaming reader on the replayed bodies: every CSR must be identical
// (a correctness gate), and the per-layer metrics record the fast
// path's speedup and its allocations per body.
func compareReaders(bodies [][]byte, ps *sparse.ParseScratch, rep *report) error {
	var fast, stream time.Duration
	for i, b := range bodies {
		t0 := time.Now()
		mf, err := sparse.ReadMatrixMarketBytesScratch(b, ps)
		fast += time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		ms, err := sparse.ReadMatrixMarket(bytes.NewReader(b))
		stream += time.Since(t0)
		if err != nil {
			return err
		}
		err = sameCSR(mf, ms)
		rep.ops.add(err)
		if err != nil {
			err = fmt.Errorf("body %d: fast path and streaming reader disagree: %w", i, err)
			rep.gate(err)
			return err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range bodies {
		if _, err := sparse.ReadMatrixMarketBytesScratch(b, ps); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	rep.perLayer["sparse.stream_speedup"] = stream.Seconds() / fast.Seconds()
	rep.perLayer["sparse.parse_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(len(bodies))
	return nil
}

func sameCSR(a, b *sparse.CSR) error {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		return fmt.Errorf("dims %dx%d vs %dx%d", ar, ac, br, bc)
	}
	if !slices.Equal(a.RowPtr(), b.RowPtr()) || !slices.Equal(a.ColIdx(), b.ColIdx()) {
		return fmt.Errorf("structure differs")
	}
	av, bv := a.Values(), b.Values()
	if len(av) != len(bv) {
		return fmt.Errorf("%d vs %d values", len(av), len(bv))
	}
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			return fmt.Errorf("value %d: %v vs %v", i, av[i], bv[i])
		}
	}
	return nil
}
