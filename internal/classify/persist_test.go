package classify

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"
)

// persistTask generates a well-separated 3-class problem.
func persistTask(rng *rand.Rand, n, d int) (x [][]float64, y []int) {
	x = make([][]float64, n)
	y = make([]int, n)
	for i := range x {
		c := i % 3
		row := make([]float64, d)
		for j := range row {
			row[j] = float64(c) + 0.2*rng.NormFloat64()
		}
		x[i] = row
		y[i] = c
	}
	return x, y
}

// TestClassifierGobRoundTrip checks that every persistable model
// predicts identically after a save/load through a Classifier interface
// value, which is how the serve artifact stores it.
func TestClassifierGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, y := persistTask(rng, 240, 6)
	models := map[string]Classifier{
		"knn":    NewKNN(5),
		"tree":   NewTree(8),
		"forest": &Forest{Trees: 12, MaxDepth: 5, Seed: 3},
		"logreg": NewLogReg(),
	}
	for name, clf := range models {
		if !Persistable(clf) {
			t.Errorf("%s: Persistable = false", name)
		}
		if err := clf.Fit(x, y, 3); err != nil {
			t.Fatalf("%s fit: %v", name, err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&clf); err != nil {
			t.Fatalf("%s encode: %v", name, err)
		}
		var loaded Classifier
		if err := gob.NewDecoder(&buf).Decode(&loaded); err != nil {
			t.Fatalf("%s decode: %v", name, err)
		}
		for i, row := range x {
			if got, want := loaded.Predict(row), clf.Predict(row); got != want {
				t.Fatalf("%s: prediction diverges at row %d: %d != %d", name, i, got, want)
			}
		}
	}
}

// TestTreeRoundTripPreservesStructure checks depth and importances
// survive the flatten/unflatten cycle.
func TestTreeRoundTripPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := persistTask(rng, 150, 4)
	tree := NewTree(7)
	if err := tree.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	data, err := tree.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var loaded Tree
	if err := loaded.GobDecode(data); err != nil {
		t.Fatal(err)
	}
	if loaded.Depth() != tree.Depth() {
		t.Errorf("depth %d != %d", loaded.Depth(), tree.Depth())
	}
	imp, limp := tree.Importances(), loaded.Importances()
	if len(imp) != len(limp) {
		t.Fatalf("importances length %d != %d", len(limp), len(imp))
	}
	for j := range imp {
		if imp[j] != limp[j] {
			t.Errorf("importance %d: %v != %v", j, limp[j], imp[j])
		}
	}
}

// TestClassifierGobRejectsGarbage checks decoders fail loudly on
// corrupt and inconsistent payloads.
func TestClassifierGobRejectsGarbage(t *testing.T) {
	var tree Tree
	if err := tree.GobDecode([]byte("junk")); err == nil {
		t.Error("tree accepted garbage")
	}
	var knn KNN
	if err := knn.GobDecode([]byte{0x01}); err == nil {
		t.Error("knn accepted garbage")
	}
	// A fitted tree without nodes is inconsistent.
	data, err := encodeWire(treeGob{Fitted: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.GobDecode(data); err == nil {
		t.Error("fitted node-less tree accepted")
	}

	// Crafted node arrays: each would recurse without bound or panic in
	// Predict or the forest's vote if decode let it through.
	leaf := treeNodeGob{Leaf: true, Left: -1, Right: -1}
	split := func(feature, left, right int) treeNodeGob {
		return treeNodeGob{Feature: feature, Left: left, Right: right}
	}
	imp := []float64{0.5, 0.5}
	for name, w := range map[string]treeGob{
		"root is its own left child":  {Nodes: []treeNodeGob{split(0, 0, 1), leaf}},
		"left child skips ahead":      {Nodes: []treeNodeGob{split(0, 2, 1), leaf, leaf}},
		"right child points back":     {Nodes: []treeNodeGob{split(0, 1, 0), leaf}},
		"right child shares the left": {Nodes: []treeNodeGob{split(0, 1, 1), leaf}},
		"right child out of range":    {Nodes: []treeNodeGob{split(0, 1, 2), leaf}},
		"left child out of range":     {Nodes: []treeNodeGob{split(0, 1, 2)}},
		"unreachable trailing node":   {Nodes: []treeNodeGob{leaf, leaf}},
		"negative feature":            {Nodes: []treeNodeGob{split(-1, 1, 2), leaf, leaf}},
		"feature past importances":    {Nodes: []treeNodeGob{split(2, 1, 2), leaf, leaf}},
		"class past classes":          {Nodes: []treeNodeGob{split(0, 1, 2), leaf, {Leaf: true, Class: 3}}},
		"negative class":              {Nodes: []treeNodeGob{{Leaf: true, Class: -1}}},
	} {
		w.Fitted, w.Classes, w.Importance = true, 3, imp
		data, err := encodeWire(w)
		if err != nil {
			t.Fatal(err)
		}
		var tr Tree
		if err := tr.GobDecode(data); err == nil {
			t.Errorf("tree with %s accepted", name)
		}
	}

	// A forest whose estimators disagree with it on the class count or
	// with each other on the feature count would index its vote or the
	// feature vector out of range.
	rng := rand.New(rand.NewSource(5))
	x, y := persistTask(rng, 60, 2)
	fit := func(classes, d int) *Tree {
		tr := NewTree(3)
		rows := make([][]float64, len(x))
		for i := range rows {
			rows[i] = make([]float64, d)
			copy(rows[i], x[i])
		}
		if err := tr.Fit(rows, y, classes); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for name, w := range map[string]forestGob{
		"estimator with fewer classes": {Classes: 4, Estimators: []*Tree{fit(4, 2), fit(3, 2)}},
		"estimator with more features": {Classes: 3, Estimators: []*Tree{fit(3, 2), fit(3, 3)}},
		"unfitted estimator":           {Classes: 3, Estimators: []*Tree{fit(3, 2), NewTree(3)}},
	} {
		w.Fitted = true
		data, err := encodeWire(w)
		if err != nil {
			t.Fatal(err)
		}
		var f Forest
		if err := f.GobDecode(data); err == nil {
			t.Errorf("forest with %s accepted", name)
		}
	}
}

// TestUnfittedClassifierRoundTrips checks an unfitted model survives
// persistence (and still refuses to predict meaningfully).
func TestUnfittedClassifierRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(NewKNN(3)); err != nil {
		t.Fatal(err)
	}
	var loaded KNN
	if err := gob.NewDecoder(&buf).Decode(&loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.K != 3 {
		t.Errorf("K = %d, want 3", loaded.K)
	}
}
