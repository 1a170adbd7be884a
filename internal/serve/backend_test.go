package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// fakeBackend is a swappable in-memory Backend + AdminBackend for
// exercising the server's routing, shadow scoring, readiness and admin
// plumbing without the registry (which has its own tests).
type fakeBackend struct {
	mu       sync.Mutex
	def      string
	models   map[string]LiveModel
	shadows  map[string]LiveModel
	records  []string // "arch live->cand" per RecordShadow
	notReady error
	reloadCh []string
}

func newFakeBackend(def string) *fakeBackend {
	return &fakeBackend{def: def, models: map[string]LiveModel{}, shadows: map[string]LiveModel{}}
}

func (f *fakeBackend) set(arch string, art *Artifact, hash string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.models[arch] = LiveModel{Arch: arch, Hash: hash, Source: "memory", Artifact: art}
}

func (f *fakeBackend) setShadow(arch string, art *Artifact, hash string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shadows[arch] = LiveModel{Arch: arch, Hash: hash, Source: "memory", Artifact: art}
}

func (f *fakeBackend) DefaultArch() string { return f.def }

func (f *fakeBackend) Live(arch string) (LiveModel, error) {
	a := NormalizeArch(arch)
	if a == "" {
		a = f.def
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	lm, ok := f.models[a]
	if !ok {
		return LiveModel{}, fmt.Errorf("%w %q", ErrUnknownArch, arch)
	}
	if lm.Artifact == nil {
		return LiveModel{}, fmt.Errorf("%w for %q", ErrNotLoaded, a)
	}
	return lm, nil
}

func (f *fakeBackend) Shadow(arch string) (LiveModel, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	lm, ok := f.shadows[NormalizeArch(arch)]
	return lm, ok
}

func (f *fakeBackend) RecordShadow(arch string, live, cand Prediction) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.records = append(f.records, fmt.Sprintf("%s %d->%d", arch, live.Label, cand.Label))
}

func (f *fakeBackend) Ready() error { f.mu.Lock(); defer f.mu.Unlock(); return f.notReady }

func (f *fakeBackend) Status() []ArchStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []ArchStatus
	for a, lm := range f.models {
		out = append(out, ArchStatus{Arch: a, Default: a == f.def, Loaded: lm.Artifact != nil, Hash: lm.Hash})
	}
	return out
}

func (f *fakeBackend) Reload() ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reloadCh, nil
}

func (f *fakeBackend) Promote(arch string) (string, error) {
	a := NormalizeArch(arch)
	f.mu.Lock()
	defer f.mu.Unlock()
	cand, ok := f.shadows[a]
	if !ok {
		return "", fmt.Errorf("no shadow for %q", a)
	}
	f.models[a] = cand
	delete(f.shadows, a)
	return cand.Hash, nil
}

func (f *fakeBackend) ShadowReport() any {
	return map[string]any{"fake": true}
}

// trainArtifact fits a small semisup artifact over the shared corpus;
// seed/clusters vary so tests can mint genuinely different models.
func trainArtifact(t *testing.T, ms []*sparse.CSR, best []sparse.Format, clusters int, seed int64) *Artifact {
	t.Helper()
	sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: clusters, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return NewSemisupArtifact(sel.Model(), "Turing")
}

func mmBytes(t *testing.T, m *sparse.CSR) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// disagreeing returns a corpus matrix on which two artifacts answer
// different formats, so a test can tell which model produced an answer.
func disagreeing(t *testing.T, a, b *Artifact, ms []*sparse.CSR) (*sparse.CSR, Prediction, Prediction) {
	t.Helper()
	for _, m := range ms {
		pa, pb := a.MustPredict(t, m), b.MustPredict(t, m)
		if pa.Format != pb.Format {
			return m, pa, pb
		}
	}
	t.Fatal("the two artifacts agree on every corpus matrix")
	return nil, Prediction{}, Prediction{}
}

// TestMemoHitAfterSwapAnswersFromNewModel is the regression test for
// the stale-answer-after-swap bug: once the backend swaps artifacts,
// the very next answer for a repeated body must carry the new model
// hash and the new model's format, even though the body's features
// come from the memo filled under the old model.
func TestMemoHitAfterSwapAnswersFromNewModel(t *testing.T) {
	ms, best := labelledCorpus(t, "Turing")
	artA := trainArtifact(t, ms, best, 10, 7)
	artB := trainArtifact(t, ms, best, 6, 99)
	m, wantA, wantB := disagreeing(t, artA, artB, ms)
	fb := newFakeBackend("turing")
	fb.set("turing", artA, "hash-a")
	srv, err := NewBackendServer(fb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	mm := mmBytes(t, m)

	rec, out := postJSON(t, h, "/v1/predict/matrix", mm)
	if rec.Code != http.StatusOK || out["cached"] != false || out["format"] != wantA.Format {
		t.Fatalf("first request: %d %v, want computed %s", rec.Code, out, wantA.Format)
	}
	rec, out = postJSON(t, h, "/v1/predict/matrix", mm)
	if rec.Code != http.StatusOK || out["cached"] != true || out["model_hash"] != "hash-a" || out["format"] != wantA.Format {
		t.Fatalf("repeat request: %d %v, want memo hit answered by hash-a (%s)", rec.Code, out, wantA.Format)
	}

	// Hot-swap with nothing flushed: the memoized features feed the new
	// model.
	fb.set("turing", artB, "hash-b")
	rec, out = postJSON(t, h, "/v1/predict/matrix", mm)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-swap request: %d %v", rec.Code, out)
	}
	if out["cached"] != true || out["model_hash"] != "hash-b" || out["format"] != wantB.Format {
		t.Fatalf("post-swap request = %v, want memo hit answered by hash-b (%s)", out, wantB.Format)
	}
}

// poisoned is a classifier with a bug confined to one input: on the
// poison feature vector it predicts through a nil model and panics;
// every other vector answers label 1.
type poisoned struct{ poison []float64 }

func (p poisoned) Fit([][]float64, []int, int) error { return nil }

func (p poisoned) Predict(x []float64) int {
	if slices.Equal(x, p.poison) {
		var nilModel *classify.Tree
		return nilModel.Predict(x)
	}
	return 1
}

// TestBatchItemPanicIsThatItemsError: a panic answering one batch item
// becomes that item's error — counted in serve/batch/item_errors, with
// the request's trace force-kept — while the other items still get
// their answers.
func TestBatchItemPanicIsThatItemsError(t *testing.T) {
	defer obs.Default.Reset()
	ms, _ := labelledCorpus(t, "Turing")
	art := &Artifact{
		Kind:       KindClassifier,
		Classifier: "poisoned",
		Formats:    KernelFormatNames(),
		Clf:        poisoned{poison: features.Extract(ms[1]).Slice()},
	}
	fb := newFakeBackend("turing")
	fb.set("turing", art, "hash-p")
	srv, err := NewBackendServer(fb, Config{TraceSample: -1})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(batchRequest{Matrices: []string{
		string(mmBytes(t, ms[0])), string(mmBytes(t, ms[1])), string(mmBytes(t, ms[2])),
	}})
	itemErrors := srv.batchErrors.Value()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict/batch", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "batch-panic")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch with a panicking item: %d %s", rec.Code, rec.Body.String())
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want := KernelFormatNames()[1]
	if resp.Count != 3 || resp.Errors != 1 || resp.Results[0].Format != want || resp.Results[2].Format != want {
		t.Fatalf("batch response = %+v, want items 0 and 2 answered %s and one error", resp, want)
	}
	if r := resp.Results[1]; r.Format != "" || !strings.Contains(r.Error, "nil pointer") {
		t.Fatalf("panicking item = %+v, want its panic as the error", r)
	}
	if got := srv.batchErrors.Value() - itemErrors; got != 1 {
		t.Errorf("serve/batch/item_errors rose by %d, want 1", got)
	}
	e := srv.env.Traces.Get("batch-panic")
	if e == nil || !slices.Contains(e.Reasons, obs.KeepPanic) {
		t.Fatalf("trace of the batch = %+v, want it kept for %q", e, obs.KeepPanic)
	}
}

// TestBatchEndpoint covers the happy path, per-item errors, positional
// answers, feature-memo interplay with the single endpoint, and the
// batch size bound.
func TestBatchEndpoint(t *testing.T) {
	srv, art, m, mm := testServer(t, Config{MaxBatchItems: 3})
	h := srv.Handler()
	ms, _ := labelledCorpus(t, "Turing")
	mm2 := mmBytes(t, ms[1])
	want := art.MustPredict(t, m)
	want2 := art.MustPredict(t, ms[1])

	body, _ := json.Marshal(batchRequest{Matrices: []string{string(mm), string(mm2), "%%MatrixMarket nope"}})
	rec, _ := postJSON(t, h, "/v1/predict/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.String())
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 3 || resp.Errors != 1 || len(resp.Results) != 3 {
		t.Fatalf("batch response = %+v", resp)
	}
	if resp.Results[0].Format != want.Format || resp.Results[1].Format != want2.Format {
		t.Errorf("batch predictions = %q %q, want %q %q",
			resp.Results[0].Format, resp.Results[1].Format, want.Format, want2.Format)
	}
	if resp.Results[2].Error == "" {
		t.Error("bad item produced no error")
	}
	if resp.ModelHash == "" || resp.Arch == "" {
		t.Errorf("batch response missing identity: %+v", resp)
	}

	// A single request for the same matrix hits the batch-populated memo.
	rec, out := postJSON(t, h, "/v1/predict/matrix", mm)
	if rec.Code != http.StatusOK || out["cached"] != true {
		t.Errorf("single request after batch: %d %v, want memo hit", rec.Code, out)
	}

	// The text form: concatenated MatrixMarket files split on their
	// banner lines, answered identically to the JSON form.
	concat := append(append([]byte{}, mm...), mm2...)
	req := httptest.NewRequest(http.MethodPost, "/v1/predict/batch", bytes.NewReader(concat))
	req.Header.Set("Content-Type", "text/plain")
	trec := httptest.NewRecorder()
	h.ServeHTTP(trec, req)
	if trec.Code != http.StatusOK {
		t.Fatalf("text batch: %d %s", trec.Code, trec.Body.String())
	}
	var tresp batchResponse
	if err := json.Unmarshal(trec.Body.Bytes(), &tresp); err != nil {
		t.Fatal(err)
	}
	if tresp.Count != 2 || tresp.Errors != 0 ||
		tresp.Results[0].Format != want.Format || tresp.Results[1].Format != want2.Format {
		t.Fatalf("text batch response = %+v, want formats %q %q", tresp, want.Format, want2.Format)
	}

	// A text body with no banner lines cannot be split.
	req = httptest.NewRequest(http.MethodPost, "/v1/predict/batch", strings.NewReader("not a matrix\n"))
	req.Header.Set("Content-Type", "text/plain")
	trec = httptest.NewRecorder()
	h.ServeHTTP(trec, req)
	if trec.Code != http.StatusBadRequest {
		t.Errorf("unsplittable text batch: %d, want 400", trec.Code)
	}

	// Over the per-request bound.
	big, _ := json.Marshal(batchRequest{Matrices: []string{string(mm), string(mm), string(mm), string(mm)}})
	rec, out = postJSON(t, h, "/v1/predict/batch", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: %d %v, want 413", rec.Code, out)
	}

	// Empty batch.
	empty, _ := json.Marshal(batchRequest{})
	rec, _ = postJSON(t, h, "/v1/predict/batch", empty)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch: %d, want 400", rec.Code)
	}
}

// TestArchRouting checks multi-arch resolution: default, explicit,
// unknown (404) and unloaded (503).
func TestArchRouting(t *testing.T) {
	ms, best := labelledCorpus(t, "Turing")
	fb := newFakeBackend("turing")
	fb.set("turing", trainArtifact(t, ms, best, 10, 7), "hash-t")
	fb.set("pascal", trainArtifact(t, ms, best, 8, 3), "hash-p")
	fb.models["volta"] = LiveModel{Arch: "volta"} // configured, unloaded
	srv, err := NewBackendServer(fb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	mm := mmBytes(t, ms[0])

	rec, out := postJSON(t, h, "/v1/predict/matrix", mm)
	if rec.Code != http.StatusOK || out["arch"] != "turing" || out["model_hash"] != "hash-t" {
		t.Fatalf("default arch: %d %v", rec.Code, out)
	}
	rec, out = postJSON(t, h, "/v1/predict/matrix?arch=Pascal", mm)
	if rec.Code != http.StatusOK || out["arch"] != "pascal" || out["model_hash"] != "hash-p" {
		t.Fatalf("explicit arch (case-folded): %d %v", rec.Code, out)
	}
	rec, out = postJSON(t, h, "/v1/predict/matrix?arch=ampere", mm)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown arch: %d %v, want 404", rec.Code, out)
	}
	rec, out = postJSON(t, h, "/v1/predict/matrix?arch=volta", mm)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("unloaded arch: %d %v, want 503", rec.Code, out)
	}

	// /v1/model routes the same way.
	recM := httptest.NewRecorder()
	h.ServeHTTP(recM, httptest.NewRequest(http.MethodGet, "/v1/model?arch=pascal", nil))
	var meta modelResponse
	if err := json.Unmarshal(recM.Body.Bytes(), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Arch != "pascal" || meta.Hash != "hash-p" || meta.Default {
		t.Fatalf("/v1/model?arch=pascal = %+v", meta)
	}
}

// TestReadyz checks the readiness endpoint flips 503 -> 200 with the
// backend's load state.
func TestReadyz(t *testing.T) {
	ms, best := labelledCorpus(t, "Turing")
	fb := newFakeBackend("turing")
	fb.set("turing", trainArtifact(t, ms, best, 10, 7), "hash-t")
	fb.notReady = fmt.Errorf("pascal not loaded yet")
	srv, err := NewBackendServer(fb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while loading: %d, want 503", rec.Code)
	}
	var resp ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Ready || !strings.Contains(resp.Error, "pascal") || len(resp.Arches) == 0 {
		t.Fatalf("/readyz body = %+v", resp)
	}

	fb.notReady = nil
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz when ready: %d", rec.Code)
	}
	// Liveness stays 200 throughout.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz: %d", rec.Code)
	}
}

// TestShadowScoringBypassesCache: with a candidate registered, every
// request records one live-vs-candidate comparison. Repeats take their
// features from the memo, but no answer is ever served from a cache,
// so shadow scoring never skips a request.
func TestShadowScoringBypassesCache(t *testing.T) {
	ms, best := labelledCorpus(t, "Turing")
	fb := newFakeBackend("turing")
	fb.set("turing", trainArtifact(t, ms, best, 10, 7), "hash-live")
	fb.setShadow("turing", trainArtifact(t, ms, best, 6, 99), "hash-cand")
	srv, err := NewBackendServer(fb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	mm := mmBytes(t, ms[0])

	for i := 0; i < 3; i++ {
		rec, out := postJSON(t, h, "/v1/predict/matrix", mm)
		if rec.Code != http.StatusOK || out["cached"] != (i > 0) {
			t.Fatalf("shadowed request %d: %d %v, want memo hit iff repeat", i, rec.Code, out)
		}
	}
	if got := len(fb.records); got != 3 {
		t.Fatalf("recorded %d shadow comparisons, want 3", got)
	}

	// Batch items score too.
	body, _ := json.Marshal(batchRequest{Matrices: []string{string(mm), string(mmBytes(t, ms[1]))}})
	rec, _ := postJSON(t, h, "/v1/predict/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("shadowed batch: %d", rec.Code)
	}
	if got := len(fb.records); got != 5 {
		t.Fatalf("recorded %d shadow comparisons after batch, want 5", got)
	}
}

func adminReq(t *testing.T, h http.Handler, method, path, token string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestAdminAuth: the admin surface refuses unauthenticated mutation by
// default (no token configured -> 401 for everyone), enforces the
// configured token, and still answers 501 for static backends.
func TestAdminAuth(t *testing.T) {
	ms, best := labelledCorpus(t, "Turing")
	art := trainArtifact(t, ms, best, 10, 7)

	// No token configured: every admin request is refused.
	srvNoToken, err := NewServer(art, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srvNoToken.Handler()
	for _, p := range []struct{ method, path string }{
		{http.MethodPost, "/v1/admin/reload"},
		{http.MethodPost, "/v1/admin/promote"},
		{http.MethodGet, "/v1/admin/shadow"},
	} {
		rec := adminReq(t, h, p.method, p.path, "")
		if rec.Code != http.StatusUnauthorized {
			t.Errorf("%s with no token configured: %d, want 401", p.path, rec.Code)
		}
		// Even a guessed token cannot authenticate against an unset one.
		rec = adminReq(t, h, p.method, p.path, "")
		if rec.Code != http.StatusUnauthorized {
			t.Errorf("%s empty bearer: %d, want 401", p.path, rec.Code)
		}
	}

	// Token configured: wrong token 401 (with WWW-Authenticate), right
	// token reaches the handler (501 on a static backend).
	srv, err := NewServer(art, Config{AdminToken: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	h = srv.Handler()
	rec := adminReq(t, h, http.MethodPost, "/v1/admin/reload", "wrong")
	if rec.Code != http.StatusUnauthorized || rec.Header().Get("WWW-Authenticate") == "" {
		t.Errorf("wrong token: %d %q, want 401 + WWW-Authenticate", rec.Code, rec.Header().Get("WWW-Authenticate"))
	}
	rec = adminReq(t, h, http.MethodPost, "/v1/admin/reload", "s3cret")
	if rec.Code != http.StatusNotImplemented {
		t.Errorf("static backend admin: %d, want 501", rec.Code)
	}
	rec = adminReq(t, h, http.MethodGet, "/v1/admin/reload", "s3cret")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET reload: %d, want 405", rec.Code)
	}
}

// TestAdminEndpointsWithBackend drives reload/promote/shadow against
// the fake admin backend, and checks that the first answer after a
// promotion comes from the promoted model.
func TestAdminEndpointsWithBackend(t *testing.T) {
	ms, best := labelledCorpus(t, "Turing")
	live := trainArtifact(t, ms, best, 10, 7)
	cand := trainArtifact(t, ms, best, 6, 99)
	m, wantLive, wantCand := disagreeing(t, live, cand, ms)
	fb := newFakeBackend("turing")
	fb.set("turing", live, "hash-live")
	fb.setShadow("turing", cand, "hash-cand")
	srv, err := NewBackendServer(fb, Config{AdminToken: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	rec := adminReq(t, h, http.MethodGet, "/v1/admin/shadow", "s3cret")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "fake") {
		t.Fatalf("shadow report: %d %s", rec.Code, rec.Body.String())
	}

	// Serve the body once under the live model, filling the memo.
	mm := mmBytes(t, m)
	recP, out := postJSON(t, h, "/v1/predict/matrix", mm)
	if recP.Code != http.StatusOK || out["model_hash"] != "hash-live" || out["format"] != wantLive.Format {
		t.Fatalf("pre-promote predict: %d %v, want hash-live (%s)", recP.Code, out, wantLive.Format)
	}

	rec = adminReq(t, h, http.MethodPost, "/v1/admin/promote?arch=turing", "s3cret")
	if rec.Code != http.StatusOK {
		t.Fatalf("promote: %d %s", rec.Code, rec.Body.String())
	}
	var pr promoteResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Arch != "turing" || pr.Hash != "hash-cand" {
		t.Fatalf("promote response = %+v", pr)
	}
	// The first answer after the promotion is a memo hit, answered by
	// the promoted candidate with its own format.
	recP, out = postJSON(t, h, "/v1/predict/matrix", mm)
	if recP.Code != http.StatusOK || out["cached"] != true || out["model_hash"] != "hash-cand" || out["format"] != wantCand.Format {
		t.Fatalf("post-promote predict: %d %v, want memo hit answered by hash-cand (%s)", recP.Code, out, wantCand.Format)
	}

	// Reload reports what the backend swapped, and is idempotent.
	fb.reloadCh = []string{"turing"}
	rec = adminReq(t, h, http.MethodPost, "/v1/admin/reload", "s3cret")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"changed":["turing"]`) {
		t.Fatalf("reload: %d %s", rec.Code, rec.Body.String())
	}
	fb.reloadCh = nil
	rec = adminReq(t, h, http.MethodPost, "/v1/admin/reload", "s3cret")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"changed":[]`) {
		t.Fatalf("idempotent reload: %d %s", rec.Code, rec.Body.String())
	}
	// Promoting again fails: no candidate left.
	rec = adminReq(t, h, http.MethodPost, "/v1/admin/promote?arch=turing", "s3cret")
	if rec.Code != http.StatusConflict {
		t.Fatalf("re-promote: %d, want 409", rec.Code)
	}
}
