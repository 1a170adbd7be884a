package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// trainedArtifact fits a small tree classifier on Turing labels, the
// model the real-replica tests serve.
func trainedArtifact(t *testing.T) *serve.Artifact {
	t.Helper()
	train, err := dataset.Generate(dataset.Config{Seed: 1, BaseCount: 40, Scale: 0.3, DropELLFailures: true})
	if err != nil {
		t.Fatal(err)
	}
	var x [][]float64
	var y []int
	for _, it := range train {
		m := gpusim.Turing.Measure(it.Name, gpusim.NewProfile(it.Matrix))
		if !m.Feasible() {
			continue
		}
		x = append(x, features.Extract(it.Matrix).Slice())
		y = append(y, m.Best)
	}
	art, err := serve.TrainClassifierArtifact("tree", "Turing", x, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// TestProxyAnswersEqualDirectPredictions: three real serve replicas of
// one trained artifact behind the proxy. Every proxied single-matrix
// answer and every proxied batch item must equal what the artifact
// itself predicts for that matrix — routing, hedging and the hop must
// never change an answer.
func TestProxyAnswersEqualDirectPredictions(t *testing.T) {
	art := trainedArtifact(t)
	var addrs []string
	for i := 0; i < 3; i++ {
		srv, err := serve.NewServer(art, serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		addrs = append(addrs, strings.TrimPrefix(ts.URL, "http://"))
	}
	p, err := New(Config{Replicas: addrs})
	if err != nil {
		t.Fatal(err)
	}
	p.CheckAll(context.Background())
	if got := p.ring.Size(); got != len(addrs) {
		t.Fatalf("ring size %d after CheckAll over %d real replicas", got, len(addrs))
	}
	h := p.Handler()

	reqs, err := dataset.Generate(dataset.Config{Seed: 99, BaseCount: 16, Scale: 0.3, DropELLFailures: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) < 16 {
		t.Fatalf("only %d request matrices generated, want >= 16", len(reqs))
	}
	bodies := make([][]byte, len(reqs))
	want := make([]serve.Prediction, len(reqs))
	owners := map[string]bool{}
	for i, it := range reqs {
		var buf bytes.Buffer
		if err := sparse.WriteMatrixMarket(&buf, it.Matrix); err != nil {
			t.Fatal(err)
		}
		bodies[i] = buf.Bytes()
		if want[i], err = art.PredictMatrix(it.Matrix); err != nil {
			t.Fatal(err)
		}

		rec := post(h, "/v1/predict/matrix", bodies[i])
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: proxied predict answered %d %s", it.Name, rec.Code, rec.Body.String())
		}
		owners[rec.Header().Get("X-Proxy-Replica")] = true
		var got serve.Prediction
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Errorf("%s: proxied answer %+v, artifact predicts %+v", it.Name, got, want[i])
		}
	}
	if len(owners) < 2 {
		t.Errorf("%d matrices all landed on one replica of %d; fleet %+v", len(reqs), len(addrs), p.Fleet())
	}

	// Text-form batches of four, so the batches hash to several owners.
	for lo := 0; lo < len(bodies); lo += 4 {
		hi := min(lo+4, len(bodies))
		rec := post(h, "/v1/predict/batch", bytes.Join(bodies[lo:hi], nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("batch %d: proxied predict answered %d %s", lo/4, rec.Code, rec.Body.String())
		}
		var ans struct {
			Errors  int `json:"errors"`
			Results []struct {
				serve.Prediction
				Error string `json:"error"`
			} `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
			t.Fatal(err)
		}
		if ans.Errors != 0 || len(ans.Results) != hi-lo {
			t.Fatalf("batch %d: %d results, %d errors: %s", lo/4, len(ans.Results), ans.Errors, rec.Body.String())
		}
		for k, r := range ans.Results {
			if r.Prediction != want[lo+k] {
				t.Errorf("%s: proxied batch item %+v, artifact predicts %+v", reqs[lo+k].Name, r.Prediction, want[lo+k])
			}
		}
	}
}

// TestProxyAndReplicaShareOneRequestID: the proxy and a real serve
// replica run the same request-ID envelope. An over-long X-Request-ID
// is clipped once, to 128 bytes, and that one ID keys the proxy's
// answer, the replica's retained trace and the proxy's stitched trace;
// a request without an ID gets one minted by the proxy, which the
// replica adopts.
func TestProxyAndReplicaShareOneRequestID(t *testing.T) {
	defer obs.Default.Reset()
	art := trainedArtifact(t)
	srv, err := serve.NewServer(art, serve.Config{AdminToken: "tok", TraceSample: -1})
	if err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(srv.Handler())
	t.Cleanup(replica.Close)
	p, err := New(Config{
		Replicas:    []string{strings.TrimPrefix(replica.URL, "http://")},
		AdminToken:  "tok",
		TraceSample: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.CheckAll(context.Background())
	h := p.Handler()
	reqs, err := dataset.Generate(dataset.Config{Seed: 7, BaseCount: 1, Scale: 0.3, DropELLFailures: true})
	if err != nil || len(reqs) == 0 {
		t.Fatalf("generating a request matrix: %v", err)
	}
	var body bytes.Buffer
	if err := sparse.WriteMatrixMarket(&body, reqs[0].Matrix); err != nil {
		t.Fatal(err)
	}

	// predict posts the matrix through the proxy, force-keeping its
	// trace on both hops, and returns the answer's X-Request-ID.
	predict := func(id string) string {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict/matrix", bytes.NewReader(body.Bytes()))
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		req.Header.Set(obs.TraceKeepHeader, "1")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("proxied predict: %d %s", rec.Code, rec.Body.String())
		}
		return rec.Header().Get("X-Request-ID")
	}
	// replicaTrace fetches the replica's own retained trace for id.
	replicaTrace := func(id string) obs.TraceEntry {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, replica.URL+"/v1/admin/trace/"+id, nil)
		req.Header.Set("Authorization", "Bearer tok")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e obs.TraceEntry
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&e) != nil {
			t.Fatalf("replica trace %q: status %d", id, resp.StatusCode)
		}
		return e
	}

	long := strings.Repeat("r", 200)
	clipped := long[:128]
	if got := predict(long); got != clipped {
		t.Fatalf("proxy answered X-Request-ID of %d bytes, want the 128-byte clip", len(got))
	}
	if e := replicaTrace(clipped); e.TraceID != clipped || e.Root == nil || e.Root.TraceID != clipped {
		t.Fatalf("replica retained trace %q (root %+v), want the clipped ID", e.TraceID, e.Root)
	}
	rec := adminGet(h, "/v1/admin/trace/"+clipped, "tok")
	var st stitchedTrace
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		t.Fatalf("stitched trace: %d %s", rec.Code, rec.Body.String())
	}
	if st.TraceID != clipped || len(st.StitchedFrom) != 1 {
		t.Fatalf("stitched trace %q from %v, want the clipped ID from the one replica", st.TraceID, st.StitchedFrom)
	}
	grafted := 0
	for _, c := range st.Root.Children {
		for _, g := range c.Children {
			if g.Root {
				grafted++
				if g.TraceID != clipped {
					t.Errorf("grafted replica tree has trace ID %q, want the clipped ID", g.TraceID)
				}
			}
		}
	}
	if grafted != 1 {
		t.Fatalf("stitched trace grafted %d replica trees, want 1", grafted)
	}

	minted := predict("")
	if len(minted) != 16 {
		t.Fatalf("proxy minted X-Request-ID %q, want 16 hex digits", minted)
	}
	if p.env.Traces.Get(minted) == nil {
		t.Fatalf("proxy retained no trace under its minted ID %q", minted)
	}
	if e := replicaTrace(minted); e.TraceID != minted {
		t.Fatalf("replica traced the request as %q, want the proxy's minted %q", e.TraceID, minted)
	}
}
