// Package classify implements from scratch the supervised models the
// paper compares against (Section 5.1): K-Nearest Neighbors, a CART
// Decision Tree, a Random Forest, a multinomial Logistic Regression, a
// linear one-vs-rest SVM trained with Pegasos, gradient-boosted trees in
// the XGBoost style, and a small convolutional neural network over
// density-image encodings of the sparsity pattern.
//
// Hyperparameters follow the paper where it states them: the forest uses
// 100 estimators of depth 6, the boosted model a 0.1 learning rate and
// 100 rounds.
package classify

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
)

// Classifier is a multiclass model over dense feature vectors.
type Classifier interface {
	// Fit trains on rows X with labels y in [0, classes). It must be
	// called exactly once.
	Fit(x [][]float64, y []int, classes int) error
	// Predict returns the predicted class of one feature vector.
	Predict(x []float64) int
}

// ErrNotFitted is returned when predicting with an untrained model.
var ErrNotFitted = errors.New("classify: model not fitted")

// BatchPredictor is implemented by classifiers with their own batched
// (typically parallel) prediction path.
type BatchPredictor interface {
	PredictAll(x [][]float64) []int
}

// PredictAll predicts every row, dispatching to the classifier's own
// batched path when it has one and otherwise fanning the rows out over
// the shared obs worker pool. Every classifier in this package is
// read-only during Predict (per-call state only), so row-parallel
// prediction is safe, and the positional output makes the result
// identical to a sequential loop.
func PredictAll(c Classifier, x [][]float64) []int {
	if b, ok := c.(BatchPredictor); ok {
		return b.PredictAll(x)
	}
	out := make([]int, len(x))
	obs.ParallelFor(len(x), func(i int) {
		out[i] = c.Predict(x[i])
	})
	return out
}

// checkTrainingInput validates the common Fit preconditions.
func checkTrainingInput(x [][]float64, y []int, classes int) error {
	if len(x) == 0 {
		return fmt.Errorf("classify: empty training set")
	}
	if len(x) != len(y) {
		return fmt.Errorf("classify: %d rows but %d labels", len(x), len(y))
	}
	if classes < 2 {
		return fmt.Errorf("classify: need >= 2 classes, got %d", classes)
	}
	d := len(x[0])
	for i, r := range x {
		if len(r) != d {
			return fmt.Errorf("classify: row %d has %d features, want %d", i, len(r), d)
		}
		// A NaN compares false both ways, so no sort orders it, and an
		// infinite value turns a split threshold (a midpoint) into ±Inf
		// or NaN.
		for j, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("classify: non-finite feature %v at row %d, column %d", v, i, j)
			}
		}
	}
	for i, l := range y {
		if l < 0 || l >= classes {
			return fmt.Errorf("classify: label %d at row %d outside [0, %d)", l, i, classes)
		}
	}
	return nil
}

// argmax returns the index of the largest value (first on ties).
func argmax(v []float64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// majority returns the most frequent class among labels, lowest class on
// ties; counts must have length classes.
func majority(y []int, counts []int) int {
	for i := range counts {
		counts[i] = 0
	}
	for _, l := range y {
		counts[l]++
	}
	return argmax1(counts)
}

func argmax1(v []int) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}
