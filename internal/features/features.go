// Package features computes the 21 statistical sparse-matrix features of
// Table 1 in the paper, the inputs to every classifier and clustering
// model in this repository. All features are computed in a single O(nnz)
// pass over a CSR matrix (O(rows) once the row histogram is known, except
// the diagonal features which need the column indices), and they are
// architecture-invariant, so they are computed once per matrix.
package features

import (
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// Count is the number of features in Vector, matching Table 1.
const Count = 21

// Names lists the feature names in Vector order, using the paper's
// spelling.
var Names = [Count]string{
	"nrows", "ncols", "nnz", "nnz_frac", "nnz_mu", "nnz_min", "nnz_max",
	"nnz_sig", "max_mu", "mu_min", "csr_max", "sig_lower", "sig_higher",
	"hyb_ell_size", "hyb_coo", "hyb_ell_frac", "diagonals", "dia_size",
	"dia_frac", "ell_frac", "ell_size",
}

// Vector holds one matrix's feature values in Names order.
type Vector [Count]float64

// Indices of the individual features within Vector.
const (
	NRows = iota
	NCols
	NNZ
	NNZFrac
	NNZMu
	NNZMin
	NNZMax
	NNZSig
	MaxMu
	MuMin
	CSRMax
	SigLower
	SigHigher
	HybEllSize
	HybCoo
	HybEllFrac
	Diagonals
	DiaSize
	DiaFrac
	EllFrac
	EllSize
)

// warpSize is the number of threads per GPU warp assumed by the csr_max
// feature (rows processed by one warp in the scalar CSR kernel).
const warpSize = 32

// slab computes an a×b storage-size feature in float64. The operands are
// matrix dimensions and widths, so an int product can silently overflow
// negative on adversarial inputs (rows ~ 2^32 × width ~ 2^31); promoting
// each factor first keeps the feature finite and positive.
func slab(a, b int) float64 {
	return float64(a) * float64(b)
}

// Extraction metrics, recorded when an obs sink is registered:
// extractions performed, and the wall time per call.
var (
	extractCalls   = obs.Default.Counter("features/extractions")
	extractSeconds = obs.Default.Histogram("features/extract/seconds", obs.DurationBuckets)
)

// Scratch holds the reusable working buffers of the feature pass: the
// row-length vector, the row-length histogram and the diagonal-occupancy
// bitmap. A zero Scratch is ready to use; reusing one across matrices
// (as ExtractAll does per worker) drops the three per-call allocations
// that otherwise dominate extraction on small matrices.
type Scratch struct {
	rowLens []int
	hist    []int
	occ     []bool
}

// ints returns s.rowLens resized to n (contents undefined).
func (s *Scratch) ints(n int) []int {
	if cap(s.rowLens) < n {
		s.rowLens = make([]int, n)
	}
	s.rowLens = s.rowLens[:n]
	return s.rowLens
}

// zeroHist returns a zeroed histogram of length n.
func (s *Scratch) zeroHist(n int) []int {
	if cap(s.hist) < n {
		s.hist = make([]int, n)
		return s.hist
	}
	s.hist = s.hist[:n]
	clear(s.hist)
	return s.hist
}

// zeroOcc returns an all-false occupancy bitmap of length n.
func (s *Scratch) zeroOcc(n int) []bool {
	if cap(s.occ) < n {
		s.occ = make([]bool, n)
		return s.occ
	}
	s.occ = s.occ[:n]
	clear(s.occ)
	return s.occ
}

// Extract computes the feature vector for a matrix.
func Extract(m *sparse.CSR) Vector {
	var s Scratch
	return s.Extract(m)
}

// Extract computes the feature vector for a matrix, reusing the
// scratch's buffers. Equivalent to the package-level Extract; a Scratch
// must not be shared between goroutines.
func (s *Scratch) Extract(m *sparse.CSR) Vector {
	start := obs.Now()
	defer func() {
		if !start.IsZero() {
			extractCalls.Inc()
			extractSeconds.Observe(time.Since(start).Seconds())
		}
	}()
	var f Vector
	rows, cols := m.Dims()
	nnz := m.NNZ()

	f[NRows] = float64(rows)
	f[NCols] = float64(cols)
	f[NNZ] = float64(nnz)
	if rows > 0 && cols > 0 {
		f[NNZFrac] = float64(nnz) / (float64(rows) * float64(cols))
	}

	// Row statistics. minRow starts at 0, not MaxInt64, when there are no
	// rows to scan: every feature of a degenerate matrix must stay finite
	// and zero-safe (they flow into drift windows and the scaler).
	minRow, maxRow := 0, 0
	if rows > 0 {
		minRow = math.MaxInt64
	}
	rowLens := s.ints(rows)
	maxWarp := 0 // csr_max: max total rows-worth of work in one warp, measured
	// as the maximum row length within any aligned warp of rows: the scalar
	// CSR kernel's warp finishes only when its longest row does.
	for i := 0; i < rows; i++ {
		n := m.RowNNZ(i)
		rowLens[i] = n
		if n < minRow {
			minRow = n
		}
		if n > maxRow {
			maxRow = n
		}
	}
	for base := 0; base < rows; base += warpSize {
		w := 0
		for i := base; i < base+warpSize && i < rows; i++ {
			if rowLens[i] > w {
				w = rowLens[i]
			}
		}
		if w > maxWarp {
			maxWarp = w
		}
	}
	var mu float64
	if rows > 0 {
		mu = float64(nnz) / float64(rows)
	}
	f[NNZMu] = mu
	f[NNZMin] = float64(minRow)
	f[NNZMax] = float64(maxRow)
	f[MaxMu] = float64(maxRow) - mu
	f[MuMin] = mu - float64(minRow)
	f[CSRMax] = float64(maxWarp)

	// Standard deviation and the one-sided RMS deviations.
	var sq, lowSq, highSq float64
	var nLow, nHigh int
	for _, n := range rowLens {
		d := float64(n) - mu
		sq += d * d
		if d < 0 {
			lowSq += d * d
			nLow++
		} else if d > 0 {
			highSq += d * d
			nHigh++
		}
	}
	if rows > 0 {
		f[NNZSig] = math.Sqrt(sq / float64(rows))
	}
	if nLow > 0 {
		f[SigLower] = math.Sqrt(lowSq / float64(nLow))
	}
	if nHigh > 0 {
		f[SigHigher] = math.Sqrt(highSq / float64(nHigh))
	}

	// ELL structure.
	f[EllSize] = slab(rows, maxRow)
	if maxRow > 0 {
		f[EllFrac] = float64(nnz) / f[EllSize]
	}

	// HYB structure: slab width per CUSP's heuristic.
	hist := s.zeroHist(maxRow + 1)
	for _, n := range rowLens {
		hist[n]++
	}
	hybW := sparse.HybWidthFromHistogram(hist, rows)
	ellPart := 0
	for _, n := range rowLens {
		if n < hybW {
			ellPart += n
		} else {
			ellPart += hybW
		}
	}
	f[HybEllSize] = slab(rows, hybW)
	f[HybCoo] = float64(nnz - ellPart)
	if f[HybEllSize] > 0 {
		f[HybEllFrac] = float64(ellPart) / f[HybEllSize]
	}

	// DIA structure. A 0×0 matrix has no diagonals at all; clamp the
	// occupancy size so the bitmap never goes negative.
	nocc := rows + cols - 1
	if nocc < 0 {
		nocc = 0
	}
	occ := s.zeroOcc(nocc)
	ndiag := 0
	rowPtr, colIdx := m.RowPtr(), m.ColIdx()
	for i := 0; i < rows; i++ {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			d := int(colIdx[k]) - i + rows - 1
			if !occ[d] {
				occ[d] = true
				ndiag++
			}
		}
	}
	f[Diagonals] = float64(ndiag)
	f[DiaSize] = slab(ndiag, rows)
	if f[DiaSize] > 0 {
		f[DiaFrac] = float64(nnz) / f[DiaSize]
	}

	return f
}

// ExtractAll computes feature vectors for a slice of matrices, fanning
// the matrices out over contiguous per-worker chunks. Each worker reuses
// one Scratch across its chunk, so a corpus-sized extraction performs a
// handful of buffer allocations instead of three per matrix. The output
// is positional and extraction is pure, so the result is identical to a
// sequential loop.
func ExtractAll(ms []*sparse.CSR) []Vector {
	out := make([]Vector, len(ms))
	obs.ParallelChunks(len(ms), obs.Workers(len(ms)), func(w, lo, hi int) {
		var s Scratch
		for i := lo; i < hi; i++ {
			out[i] = s.Extract(ms[i])
		}
	})
	return out
}

// Slice returns the vector as a fresh []float64, the representation used
// by the preprocessing and learning packages.
func (v Vector) Slice() []float64 {
	s := make([]float64, Count)
	copy(s, v[:])
	return s
}

// Matrix converts feature vectors to the row-major sample matrix consumed
// by preprocessing pipelines.
func Matrix(vs []Vector) [][]float64 {
	out := make([][]float64, len(vs))
	for i, v := range vs {
		out[i] = v.Slice()
	}
	return out
}

// String renders a feature vector with names, for the explainability
// tooling.
func (v Vector) String() string {
	s := ""
	for i, n := range Names {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%.4g", n, v[i])
	}
	return s
}
