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
	"repro/internal/serve"
	"repro/internal/sparse"
)

// TestProxyAnswersEqualDirectPredictions: three real serve replicas of
// one trained artifact behind the proxy. Every proxied single-matrix
// answer and every proxied batch item must equal what the artifact
// itself predicts for that matrix — routing, hedging and the hop must
// never change an answer.
func TestProxyAnswersEqualDirectPredictions(t *testing.T) {
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
		t.Errorf("%d matrices all landed on one replica of %d", len(reqs), len(addrs))
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
