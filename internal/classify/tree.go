package classify

import (
	"cmp"
	"math/rand"
	"slices"
)

// Tree is a CART decision-tree classifier: binary splits chosen by Gini
// impurity reduction, grown depth-first to MaxDepth.
type Tree struct {
	// MaxDepth bounds tree depth (default 10).
	MaxDepth int
	// MinSamplesSplit is the smallest node that may split (default 2).
	MinSamplesSplit int
	// MaxFeatures, when positive, samples that many candidate features
	// per split — the randomisation used by the forest. 0 considers all.
	MaxFeatures int
	// Seed drives feature subsampling when MaxFeatures > 0.
	Seed int64

	root       *treeNode
	classes    int
	fitted     bool
	importance []float64
	nTrain     int
}

type treeNode struct {
	feature     int
	threshold   float64
	left, right *treeNode
	class       int // leaf prediction
	leaf        bool
	counts      []int // class histogram at the node, for explainability
}

// NewTree returns a CART classifier with the given depth bound.
func NewTree(maxDepth int) *Tree {
	return &Tree{MaxDepth: maxDepth, MinSamplesSplit: 2}
}

// Fit grows the tree. Each feature is sorted once, here; the split
// search below the root only partitions those orders.
func (m *Tree) Fit(x [][]float64, y []int, classes int) error {
	if err := checkTrainingInput(x, y, classes); err != nil {
		return err
	}
	cols := columnMajor(x)
	m.fitSorted(cols, y, presort(cols), classes)
	return nil
}

// columnMajor returns x transposed: cols[f][i] is feature f of row i.
func columnMajor(x [][]float64) [][]float64 {
	n, d := len(x), len(x[0])
	flat := make([]float64, n*d)
	cols := make([][]float64, d)
	for f := range cols {
		cols[f] = flat[f*n : (f+1)*n : (f+1)*n]
	}
	for i, row := range x {
		for f, v := range row {
			cols[f][i] = v
		}
	}
	return cols
}

// presort returns, per feature, the row indices in ascending order of
// that feature. Ties may come out in any order: the split search reads
// class counts and thresholds only at boundaries between distinct
// values, where the order of tied rows cannot show.
func presort(cols [][]float64) [][]int32 {
	order := make([][]int32, len(cols))
	for f, xf := range cols {
		o := make([]int32, len(xf))
		for i := range o {
			o[i] = int32(i)
		}
		slices.SortFunc(o, func(a, b int32) int { return cmp.Compare(xf[a], xf[b]) })
		order[f] = o
	}
	return order
}

// fitSorted grows the tree over the training rows listed in order, which
// holds one column of row indices per feature, each ascending in that
// feature's value of cols. A row may appear more than once (a bootstrap
// copy counts as a row of its own). The columns are partitioned in place.
func (m *Tree) fitSorted(cols [][]float64, y []int, order [][]int32, classes int) {
	if m.MaxDepth <= 0 {
		m.MaxDepth = 10
	}
	if m.MinSamplesSplit < 2 {
		m.MinSamplesSplit = 2
	}
	n := len(order[0])
	m.classes = classes
	m.importance = make([]float64, len(cols))
	m.nTrain = n
	s := &splitter{
		m: m, x: cols, y: y, order: order,
		spill:    make([]int32, n),
		goLeft:   make([]uint8, len(y)),
		features: make([]int, len(cols)),
		left:     make([]int, classes),
		right:    make([]int, classes),
		rng:      rand.New(rand.NewSource(m.Seed)),
	}
	m.root = s.grow(0, n, 0)
	normalize(m.importance)
	m.fitted = true
}

// normalize scales a non-negative vector to sum to 1 (no-op when all
// zero).
func normalize(v []float64) {
	s := 0.0
	for _, x := range v {
		s += x
	}
	if s == 0 {
		return
	}
	for i := range v {
		v[i] /= s
	}
}

// splitter is the state of one tree's presorted split search. A node is
// a range [lo, hi) that is the same in every column of order: positions
// lo..hi-1 of order[f] list the node's rows ascending in feature f.
// Splitting a node stable-partitions every column's range into the left
// child's rows followed by the right child's, which keeps both children
// sorted without comparing values.
type splitter struct {
	m      *Tree
	x      [][]float64 // column-major training features
	y      []int
	order  [][]int32
	spill  []int32 // right-hand rows while a column is partitioned
	goLeft []uint8 // per row: 1 if it goes to the left child of the split

	features    []int // candidate features of the current node
	left, right []int // class counts either side of a candidate threshold
	rng         *rand.Rand
}

// grow builds the subtree over the node [lo, hi).
func (s *splitter) grow(lo, hi, depth int) *treeNode {
	m := s.m
	counts := make([]int, m.classes)
	for _, i := range s.order[0][lo:hi] {
		counts[s.y[i]]++
	}
	node := &treeNode{counts: counts, class: argmax1(counts), leaf: true}
	if depth >= m.MaxDepth || hi-lo < m.MinSamplesSplit || pure(counts) {
		return node
	}
	feat, thr, gain, ok := s.bestSplit(lo, hi, counts)
	if !ok {
		return node
	}
	// Gini importance: impurity decrease weighted by the node's share of
	// the training set.
	m.importance[feat] += gain * float64(hi-lo) / float64(m.nTrain)
	mid := s.partition(lo, hi, feat, thr)
	if mid == lo || mid == hi {
		return node
	}
	node.leaf = false
	node.feature = feat
	node.threshold = thr
	node.left = s.grow(lo, mid, depth+1)
	node.right = s.grow(mid, hi, depth+1)
	return node
}

func pure(counts []int) bool {
	nz := 0
	for _, c := range counts {
		if c > 0 {
			nz++
		}
	}
	return nz <= 1
}

// bestSplit scans candidate features for the threshold with the lowest
// weighted Gini impurity, using the sorted-scan incremental update over
// each feature's presorted range.
func (s *splitter) bestSplit(lo, hi int, parentCounts []int) (feat int, thr, gain float64, ok bool) {
	d := len(s.x)
	features := s.features
	for i := range features {
		features[i] = i
	}
	if mf := s.m.MaxFeatures; mf > 0 && mf < d {
		s.rng.Shuffle(d, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:mf]
	}

	n := float64(hi - lo)
	bestGain := 1e-12
	parentGini := giniFromCounts(parentCounts, hi-lo)
	leftCounts, rightCounts := s.left, s.right

	for _, f := range features {
		rows, xf := s.order[f][lo:hi], s.x[f]
		if xf[rows[0]] == xf[rows[len(rows)-1]] {
			continue
		}
		copy(rightCounts, parentCounts)
		clear(leftCounts)
		for k := 0; k < len(rows)-1; k++ {
			c := s.y[rows[k]]
			leftCounts[c]++
			rightCounts[c]--
			v, next := xf[rows[k]], xf[rows[k+1]]
			if v == next {
				continue
			}
			nl, nr := k+1, len(rows)-k-1
			g := (float64(nl)*giniFromCounts(leftCounts, nl) +
				float64(nr)*giniFromCounts(rightCounts, nr)) / n
			if gn := parentGini - g; gn > bestGain {
				bestGain = gn
				feat = f
				thr = (v + next) / 2
				ok = true
			}
		}
	}
	return feat, thr, bestGain, ok
}

// partition splits the node [lo, hi) on x[feat] <= thr and returns the
// boundary. Column feat is ascending, so its left rows are already a
// prefix; every other column is stable-partitioned by the side that
// prefix marks. The test is on the value, not on the scan position,
// because the midpoint of two adjacent floats can round up onto the
// larger one.
func (s *splitter) partition(lo, hi, feat int, thr float64) (mid int) {
	sorted, xf := s.order[feat][lo:hi], s.x[feat]
	nl := 0
	for nl < len(sorted) && xf[sorted[nl]] <= thr {
		nl++
	}
	for k, i := range sorted {
		s.goLeft[i] = b2u8(k < nl)
	}
	for f, col := range s.order {
		if f == feat {
			continue
		}
		rows := col[lo:hi]
		l, r := 0, 0
		for _, i := range rows {
			// Branch-free: the side is a coin flip to the predictor.
			g := int(s.goLeft[i])
			rows[l] = i
			s.spill[r] = i
			l += g
			r += 1 - g
		}
		copy(rows[l:], s.spill[:r])
	}
	return lo + nl
}

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// giniFromCounts returns 1 - sum p_i^2 over a class histogram of total n.
func giniFromCounts(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	s := 0.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		s += p * p
	}
	return 1 - s
}

// Predict walks the tree.
func (m *Tree) Predict(x []float64) int {
	if !m.fitted {
		return 0
	}
	n := m.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}

// Importances returns the normalised Gini feature importances (summing
// to 1 unless the tree is a single leaf). Callers must not modify the
// slice.
func (m *Tree) Importances() []float64 { return m.importance }

// Depth returns the height of the fitted tree (leaf-only tree is 0).
func (m *Tree) Depth() int { return depthOf(m.root) }

func depthOf(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

var _ Classifier = (*Tree)(nil)
