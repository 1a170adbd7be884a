package serve

import (
	"context"
	"crypto/sha256"
	"net/http"
	"sync"
	"testing"

	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/sparse"
)

func TestFeatMemoLRUSemantics(t *testing.T) {
	c := newFeatMemo(2)
	if !c.Enabled() {
		t.Fatal("capacity-2 memo reports disabled")
	}
	full := []float64{1, 2, 3}
	other := []float64{9}

	c.Put("a", full)
	v, ok := c.Get("a")
	if !ok || len(v) != len(full) {
		t.Fatalf("entry a = %v ok=%v", v, ok)
	}
	before := c.Bytes()
	// A repeat put for a resident key keeps its vector and footprint.
	c.Put("a", other)
	if v, _ = c.Get("a"); len(v) != len(full) {
		t.Fatalf("repeat put replaced entry a with %v", v)
	}
	if c.Bytes() != before {
		t.Errorf("footprint changed on a repeat put: %d -> %d", before, c.Bytes())
	}

	// Non-positive capacity disables; nil is safe.
	d := newFeatMemo(0)
	if d.Enabled() {
		t.Fatal("capacity-0 memo reports enabled")
	}
	d.Put("x", full)
	if _, ok = d.Get("x"); ok {
		t.Fatal("disabled memo stored an entry")
	}
	var nilMemo *featMemo
	if nilMemo.Enabled() || nilMemo.Len() != 0 || nilMemo.Bytes() != 0 {
		t.Fatal("nil memo is not inert")
	}
}

// TestLRUCacheEviction: at capacity the feature memo — the serving
// path's one cache — evicts its least recently used entry.
func TestLRUCacheEviction(t *testing.T) {
	c := newFeatMemo(2)
	vec := []float64{1, 2, 3}
	// Touch "a" after inserting "b"; inserting "c" must then evict "b".
	c.Put("a", vec)
	c.Put("b", vec)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("entry a missing")
	}
	c.Put("c", vec)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if want := 2 * featEntrySize("a", vec); c.Bytes() != want {
		t.Errorf("Bytes = %d after two resident entries, want %d", c.Bytes(), want)
	}
}

// TestFeatMemoServesRepeatMatrix is the memo's core contract: a repeat
// body is answered without parsing or extraction (the hit counter
// moves, the answer reports cached), with exactly the prediction the
// computed path produced, and the memo holds the full feature vector.
func TestFeatMemoServesRepeatMatrix(t *testing.T) {
	srv, art, m, mm := testServer(t, Config{})
	h := srv.Handler()
	want := art.MustPredict(t, m)

	hits0, misses0 := srv.memoHits.Value(), srv.memoMisses.Value()
	rec, out := postJSON(t, h, "/v1/predict/matrix", mm)
	if rec.Code != http.StatusOK || out["format"] != want.Format || out["cached"] != false {
		t.Fatalf("first predict = %d %v, want computed %s", rec.Code, out, want.Format)
	}
	if d := srv.memoMisses.Value() - misses0; d != 1 {
		t.Fatalf("featmemo misses after first request = %d, want 1", d)
	}
	if srv.featMemo.Len() != 1 {
		t.Fatalf("memo entries = %d, want 1", srv.featMemo.Len())
	}
	if v, ok := srv.featMemo.Get(memoKeyOf(mm)); !ok || len(v) != features.Count {
		t.Fatalf("memoized vector has %d features (ok=%v), want %d", len(v), ok, features.Count)
	}

	rec, out = postJSON(t, h, "/v1/predict/matrix", mm)
	if rec.Code != http.StatusOK || out["format"] != want.Format {
		t.Fatalf("repeat predict = %d %v, want %s", rec.Code, out, want.Format)
	}
	if out["cached"] != true {
		t.Fatal("memo hit reported cached=false; cached means the features came from the memo")
	}
	if d := srv.memoHits.Value() - hits0; d != 1 {
		t.Fatalf("featmemo hits after repeat = %d, want 1", d)
	}
}

// driftFake wraps fakeBackend with a drift monitor that records the
// feature vector of every served answer.
type driftFake struct {
	*fakeBackend
	mu   sync.Mutex
	vecs [][]float64
}

func (d *driftFake) RecordServed(arch string, p Prediction, vec []float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.vecs = append(d.vecs, vec)
}

func (d *driftFake) DriftReport() any { return nil }

// TestFeatMemoHitFeedsDriftFullVector: a memo hit hands the drift
// monitor the same full feature vector the parse path extracted, so
// the feature windows advance on repeat bodies too.
func TestFeatMemoHitFeedsDriftFullVector(t *testing.T) {
	ms, best := labelledCorpus(t, "Turing")
	db := &driftFake{fakeBackend: newFakeBackend("turing")}
	db.set("turing", trainArtifact(t, ms, best, 10, 7), "hash-d")
	srv, err := NewBackendServer(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	mm := mmBytes(t, ms[0])
	for i := 0; i < 2; i++ {
		if rec, out := postJSON(t, h, "/v1/predict/matrix", mm); rec.Code != http.StatusOK || out["cached"] != (i > 0) {
			t.Fatalf("request %d: %d %v", i, rec.Code, out)
		}
	}
	want := features.Extract(ms[0])
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.vecs) != 2 {
		t.Fatalf("drift monitor saw %d answers, want 2", len(db.vecs))
	}
	for i, vec := range db.vecs {
		if len(vec) != features.Count {
			t.Fatalf("answer %d: drift monitor got %d features, want %d", i, len(vec), features.Count)
		}
		for k := range vec {
			if vec[k] != want[k] {
				t.Fatalf("answer %d: drift feature %s = %v, want %v", i, features.Names[k], vec[k], want[k])
			}
		}
	}
}

func TestFeatMemoDisabledByConfig(t *testing.T) {
	srv, _, _, mm := testServer(t, Config{FeatMemoSize: -1})
	h := srv.Handler()
	hits0, misses0 := srv.memoHits.Value(), srv.memoMisses.Value()
	for i := 0; i < 2; i++ {
		if rec, _ := postJSON(t, h, "/v1/predict/matrix", mm); rec.Code != http.StatusOK {
			t.Fatalf("predict %d: %d", i, rec.Code)
		}
	}
	if srv.memoHits.Value() != hits0 || srv.memoMisses.Value() != misses0 {
		t.Fatal("disabled memo still moved its counters")
	}
	if srv.featMemo.Len() != 0 {
		t.Fatalf("disabled memo holds %d entries", srv.featMemo.Len())
	}
}

// memoKeyOf derives the memo key the server uses for a body.
func memoKeyOf(body []byte) string {
	sum := sha256.Sum256(body)
	return string(sum[:16])
}

// TestPredictBodyMemoHitAllocs pins the allocation cost of a memo hit:
// parsing and extraction (thousands of allocations for a real matrix)
// must stay off this path. The bound leaves room for the key hashing,
// the model inference and the metric labels, nothing more.
func TestPredictBodyMemoHitAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	srv, _, _, mm := testServer(t, Config{})
	lm, err := srv.backend.Live("")
	if err != nil {
		t.Fatal(err)
	}
	var scratch features.Scratch
	ps := sparse.GetParseScratch()
	defer sparse.PutParseScratch(ps)
	if _, err := srv.predictBody(context.Background(), lm, LiveModel{}, false, &scratch, ps, mm); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := srv.predictBody(context.Background(), lm, LiveModel{}, false, &scratch, ps, mm); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Fatalf("memo-hit predictBody allocates %.0f objects per run; parse/extract has crept back in", allocs)
	}
}
