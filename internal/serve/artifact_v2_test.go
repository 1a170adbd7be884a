package serve

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/sparse"
)

// Version-2 artifacts could carry a cheap-first cascade stage: a small
// classifier over eight O(rows) features that answered instead of the
// full model when confident. The stage is gone; testdata/cascade_v2.gob
// is such an artifact, saved by the last build that had it, trained on
// the labelledCorpus(t, "Turing") corpus. cascade_v2_formats.json
// records, per corpus matrix and in corpus order, the full model's
// format ("full") and what the cascade build answered ("cascade"). A v2
// cascade artifact must still load, and must now answer every matrix
// from its full model.

// loadCascadeFixture loads the v2 cascade artifact and its corpus, with
// the recorded full-model and cascade-build formats.
func loadCascadeFixture(t *testing.T) (art *Artifact, ms []*sparse.CSR, full, cascade []string) {
	t.Helper()
	art, err := LoadFile(filepath.Join("testdata", "cascade_v2.gob"))
	if err != nil {
		t.Fatalf("v2 cascade artifact rejected: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "cascade_v2_formats.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Full    []string `json:"full"`
		Cascade []string `json:"cascade"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	ms, _ = labelledCorpus(t, "Turing")
	if len(ms) != len(rec.Full) || len(ms) != len(rec.Cascade) {
		t.Fatalf("corpus has %d matrices, fixture records %d/%d", len(ms), len(rec.Full), len(rec.Cascade))
	}
	return art, ms, rec.Full, rec.Cascade
}

// TestCascadeArtifactRoundTrip: LoadFile accepts the v2 cascade
// artifact, every PredictMatrix answer equals the recorded full-model
// format, and re-saving and reloading it preserves every answer.
func TestCascadeArtifactRoundTrip(t *testing.T) {
	art, ms, full, cascade := loadCascadeFixture(t)
	changed := 0
	for i, m := range ms {
		if got := art.MustPredict(t, m); got.Format != full[i] {
			t.Fatalf("matrix %d: v2 cascade artifact answers %s, full model recorded %s", i, got.Format, full[i])
		}
		if full[i] != cascade[i] {
			changed++
		}
	}
	t.Logf("%d of %d answers differ from the cascade build's", changed, len(ms))
	var buf bytes.Buffer
	if err := art.Save(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		if a, b := art.MustPredict(t, m), again.MustPredict(t, m); a != b {
			t.Fatalf("matrix %d: reloaded artifact predicts %+v, original %+v", i, b, a)
		}
	}
}

// TestCascadeServerPath serves the v2 cascade artifact over HTTP: every
// answer is the recorded full-model format, with no cascade fields on
// the prediction or on /v1/model.
func TestCascadeServerPath(t *testing.T) {
	art, ms, full, _ := loadCascadeFixture(t)
	srv, err := NewServer(art, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for i, m := range ms {
		rec, out := postJSON(t, h, "/v1/predict/matrix", mmBytes(t, m))
		if rec.Code != http.StatusOK || out["format"] != full[i] {
			t.Fatalf("matrix %d: %d %v, want %s", i, rec.Code, out, full[i])
		}
		for _, k := range []string{"stage", "confidence"} {
			if _, ok := out[k]; ok {
				t.Fatalf("matrix %d: answer carries %q: %v", i, k, out)
			}
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/model", nil))
	if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), "cascade") {
		t.Fatalf("/v1/model = %d %s, want no cascade fields", rec.Code, rec.Body.String())
	}
}

// TestFeatMemoCascadeEntries: serving the v2 cascade artifact memoizes
// the full 21-feature vector for every body, and each repeat is a memo
// hit with the same full-model answer.
func TestFeatMemoCascadeEntries(t *testing.T) {
	art, ms, full, _ := loadCascadeFixture(t)
	srv, err := NewServer(art, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for i, m := range ms[:10] {
		mm := mmBytes(t, m)
		if rec, _ := postJSON(t, h, "/v1/predict/matrix", mm); rec.Code != http.StatusOK {
			t.Fatalf("matrix %d: %d", i, rec.Code)
		}
		if v, ok := srv.featMemo.Get(memoKeyOf(mm)); !ok || len(v) != features.Count {
			t.Fatalf("matrix %d: memoized %d features (ok=%v), want %d", i, len(v), ok, features.Count)
		}
		rec, out := postJSON(t, h, "/v1/predict/matrix", mm)
		if rec.Code != http.StatusOK || out["cached"] != true || out["format"] != full[i] {
			t.Fatalf("matrix %d repeat: %d %v, want memo hit answering %s", i, rec.Code, out, full[i])
		}
	}
}

// TestV1ArtifactRoundTrip checks a version-1 envelope still loads and
// serves the same answers.
func TestV1ArtifactRoundTrip(t *testing.T) {
	ms, best := labelledCorpus(t, "Turing")
	sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	v1 := NewSemisupArtifact(sel.Model(), "Turing")
	var buf bytes.Buffer
	if _, err := io.WriteString(&buf, artifactMagic); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&buf).Encode(artifactEnvelope{Version: 1, Payload: *v1}); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("v1 artifact rejected: %v", err)
	}
	for i, m := range ms[:10] {
		if pred, want := got.MustPredict(t, m), v1.MustPredict(t, m); pred != want {
			t.Fatalf("matrix %d: v1 round trip predicts %+v, want %+v", i, pred, want)
		}
	}
}
