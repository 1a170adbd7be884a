package classify

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceTree is the CART split search the presorted one replaced:
// it copies and sorts the node's rows for every candidate feature at
// every node. It is kept as the oracle that Tree.Fit and Forest.Fit
// must match bit for bit.
type referenceTree struct{ *Tree }

// referenceFit fits m with the per-node-sort search.
func referenceFit(m *Tree, x [][]float64, y []int, classes int) {
	if m.MaxDepth <= 0 {
		m.MaxDepth = 10
	}
	if m.MinSamplesSplit < 2 {
		m.MinSamplesSplit = 2
	}
	m.classes = classes
	m.importance = make([]float64, len(x[0]))
	m.nTrain = len(x)
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(m.Seed))
	m.root = referenceTree{m}.grow(x, y, idx, 0, rng)
	normalize(m.importance)
	m.fitted = true
}

// referenceForestFit fits m the way Forest.Fit did before the shared
// presort: materialised bootstrap rows, one reference tree each.
func referenceForestFit(m *Forest, x [][]float64, y []int, classes int) {
	if m.Trees <= 0 {
		m.Trees = 100
	}
	if m.MaxDepth <= 0 {
		m.MaxDepth = 6
	}
	mf := m.MaxFeatures
	if mf <= 0 {
		mf = int(math.Sqrt(float64(len(x[0]))))
		if mf < 1 {
			mf = 1
		}
	}
	m.classes = classes
	m.trees = make([]*Tree, m.Trees)
	rng := rand.New(rand.NewSource(m.Seed))
	for t := 0; t < m.Trees; t++ {
		bx := make([][]float64, len(x))
		by := make([]int, len(x))
		for i := range bx {
			j := rng.Intn(len(x))
			bx[i] = x[j]
			by[i] = y[j]
		}
		tree := NewTree(m.MaxDepth)
		tree.MaxFeatures = mf
		tree.Seed = rng.Int63()
		referenceFit(tree, bx, by, classes)
		m.trees[t] = tree
	}
	m.fitted = true
}

func (r referenceTree) grow(x [][]float64, y []int, idx []int, depth int, rng *rand.Rand) *treeNode {
	m := r.Tree
	counts := make([]int, m.classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	node := &treeNode{counts: counts, class: argmax1(counts), leaf: true}
	if depth >= m.MaxDepth || len(idx) < m.MinSamplesSplit || pure(counts) {
		return node
	}
	feat, thr, gain, ok := r.bestSplit(x, y, idx, counts, rng)
	if !ok {
		return node
	}
	m.importance[feat] += gain * float64(len(idx)) / float64(m.nTrain)
	var left, right []int
	for _, i := range idx {
		if x[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return node
	}
	node.leaf = false
	node.feature = feat
	node.threshold = thr
	node.left = r.grow(x, y, left, depth+1, rng)
	node.right = r.grow(x, y, right, depth+1, rng)
	return node
}

func (r referenceTree) bestSplit(x [][]float64, y []int, idx []int, parentCounts []int, rng *rand.Rand) (feat int, thr, gain float64, ok bool) {
	m := r.Tree
	d := len(x[0])
	features := make([]int, d)
	for i := range features {
		features[i] = i
	}
	if m.MaxFeatures > 0 && m.MaxFeatures < d {
		rng.Shuffle(d, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:m.MaxFeatures]
	}

	n := float64(len(idx))
	bestGain := 1e-12
	parentGini := giniFromCounts(parentCounts, len(idx))

	type fv struct {
		v float64
		y int
	}
	vals := make([]fv, len(idx))
	leftCounts := make([]int, m.classes)
	rightCounts := make([]int, m.classes)

	for _, f := range features {
		for k, i := range idx {
			vals[k] = fv{x[i][f], y[i]}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		if vals[0].v == vals[len(vals)-1].v {
			continue
		}
		copy(rightCounts, parentCounts)
		for c := range leftCounts {
			leftCounts[c] = 0
		}
		for k := 0; k < len(vals)-1; k++ {
			leftCounts[vals[k].y]++
			rightCounts[vals[k].y]--
			if vals[k].v == vals[k+1].v {
				continue
			}
			nl, nr := k+1, len(vals)-k-1
			g := (float64(nl)*giniFromCounts(leftCounts, nl) +
				float64(nr)*giniFromCounts(rightCounts, nr)) / n
			if gn := parentGini - g; gn > bestGain {
				bestGain = gn
				feat = f
				thr = (vals[k].v + vals[k+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thr, bestGain, ok
}

// tieHeavyTask draws n rows of d features that stress the split search:
// most columns take a handful of values (0 as both -0 and +0), one holds
// pairs of adjacent floats whose midpoint rounds onto the larger, one is
// constant, and a third of the rows duplicate an earlier row, as a
// bootstrap does. Labels follow the first two features with noise, so
// trees grow several levels.
func tieHeavyTask(rng *rand.Rand, n, d, classes int) (x [][]float64, y []int) {
	negZero := math.Copysign(0, -1)
	// (lo+hi)/2 is a tie that rounds to even, which is hi.
	lo := math.Nextafter(1, 2)
	hi := math.Nextafter(lo, 2)
	x = make([][]float64, n)
	y = make([]int, n)
	for i := range x {
		if i > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(i)
			x[i], y[i] = x[j], y[j]
			continue
		}
		row := make([]float64, d)
		for f := range row {
			switch {
			case f == d-1:
				row[f] = 2.5 // constant column
			case f == d-2:
				row[f] = lo
				if rng.Intn(2) == 0 {
					row[f] = hi
				}
			default:
				v := float64(rng.Intn(5) - 2)
				if v == 0 && rng.Intn(2) == 0 {
					v = negZero
				}
				row[f] = v
			}
		}
		x[i] = row
		y[i] = (int(row[0]+2) + int(row[1]+2) + rng.Intn(2)) % classes
	}
	return x, y
}

// sameTree fails the test unless two fitted trees have bit-identical
// flattened nodes, importances and training metadata.
func sameTree(t *testing.T, label string, got, want *Tree) {
	t.Helper()
	if got.classes != want.classes || got.nTrain != want.nTrain || got.fitted != want.fitted {
		t.Fatalf("%s: metadata (classes %d, nTrain %d, fitted %v) != reference (%d, %d, %v)",
			label, got.classes, got.nTrain, got.fitted, want.classes, want.nTrain, want.fitted)
	}
	if len(got.importance) != len(want.importance) {
		t.Fatalf("%s: %d importances, reference has %d", label, len(got.importance), len(want.importance))
	}
	for j := range got.importance {
		if math.Float64bits(got.importance[j]) != math.Float64bits(want.importance[j]) {
			t.Fatalf("%s: importance[%d] = %v, reference %v", label, j, got.importance[j], want.importance[j])
		}
	}
	var gn, wn []treeNodeGob
	flatten(got.root, &gn)
	flatten(want.root, &wn)
	if len(gn) != len(wn) {
		t.Fatalf("%s: %d nodes, reference has %d", label, len(gn), len(wn))
	}
	for i := range gn {
		g, w := gn[i], wn[i]
		same := g.Feature == w.Feature && math.Float64bits(g.Threshold) == math.Float64bits(w.Threshold) &&
			g.Left == w.Left && g.Right == w.Right && g.Class == w.Class && g.Leaf == w.Leaf &&
			len(g.Counts) == len(w.Counts)
		for c := 0; same && c < len(g.Counts); c++ {
			same = g.Counts[c] == w.Counts[c]
		}
		if !same {
			t.Fatalf("%s: node %d = %+v, reference %+v", label, i, g, w)
		}
	}
}

// TestTreeFitMatchesReference checks the presorted split search grows
// bit-identical trees to the per-node-sort search on tie-heavy inputs,
// with every feature, 4 sampled features, and MaxFeatures = d.
func TestTreeFitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(300)
		d := 2 + rng.Intn(20)
		classes := 2 + rng.Intn(4)
		x, y := tieHeavyTask(rng, n, d, classes)
		for _, mf := range []int{0, 4, d} {
			seed := rng.Int63()
			got := &Tree{MaxDepth: 1 + rng.Intn(12), MinSamplesSplit: 2 + rng.Intn(3), MaxFeatures: mf, Seed: seed}
			want := *got
			if err := got.Fit(x, y, classes); err != nil {
				t.Fatal(err)
			}
			referenceFit(&want, x, y, classes)
			sameTree(t, "tree", got, &want)
		}
	}
}

// TestForestFitMatchesReference checks Forest.Fit, with its shared
// presort and bootstrap-copy columns, against materialised bootstrap
// rows fitted by the reference search.
func TestForestFitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(250)
		d := 2 + rng.Intn(20)
		classes := 2 + rng.Intn(4)
		x, y := tieHeavyTask(rng, n, d, classes)
		for _, mf := range []int{0, 4, d} {
			got := &Forest{Trees: 9, MaxDepth: 1 + rng.Intn(8), MaxFeatures: mf, Seed: rng.Int63()}
			want := *got
			if err := got.Fit(x, y, classes); err != nil {
				t.Fatal(err)
			}
			referenceForestFit(&want, x, y, classes)
			for i := range got.trees {
				sameTree(t, "forest estimator", got.trees[i], want.trees[i])
			}
		}
	}
}

// benchTask is the fixed workload of the fit benchmarks: 640 rows of
// the paper's 21 features, 5 classes, every value rounded to a tenth so
// each column has many ties.
func benchTask() (x [][]float64, y []int) {
	rng := rand.New(rand.NewSource(43))
	x = make([][]float64, 640)
	y = make([]int, 640)
	for i := range x {
		c := rng.Intn(5)
		row := make([]float64, 21)
		for f := range row {
			row[f] = math.Round((float64(c*(f%3))+2*rng.NormFloat64())*10) / 10
		}
		x[i], y[i] = row, c
	}
	return x, y
}

func BenchmarkTreeFit(b *testing.B) {
	x, y := benchTask()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewTree(10).Fit(x, y, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestFit(b *testing.B) {
	x, y := benchTask()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewForest(1).Fit(x, y, 5); err != nil {
			b.Fatal(err)
		}
	}
}
