package features

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

// diag5 builds a 5x5 diagonal matrix with an extra dense first row used
// by several hand-computed checks below.
func skewed(t *testing.T) *sparse.CSR {
	t.Helper()
	tr := sparse.NewTriplet(5, 5)
	add := func(i, j int, v float64) {
		t.Helper()
		if err := tr.Add(i, j, v); err != nil {
			t.Fatal(err)
		}
	}
	// Row 0 has 5 entries, rows 1-4 have 1 (the diagonal).
	for j := 0; j < 5; j++ {
		add(0, j, 1)
	}
	for i := 1; i < 5; i++ {
		add(i, i, 2)
	}
	return tr.ToCSR()
}

func TestExtractHandComputed(t *testing.T) {
	m := skewed(t)
	f := Extract(m)

	if f[NRows] != 5 || f[NCols] != 5 {
		t.Errorf("dims: %v x %v", f[NRows], f[NCols])
	}
	if f[NNZ] != 9 {
		t.Errorf("nnz = %v, want 9", f[NNZ])
	}
	if math.Abs(f[NNZFrac]-9.0/25) > 1e-15 {
		t.Errorf("nnz_frac = %v", f[NNZFrac])
	}
	if math.Abs(f[NNZMu]-1.8) > 1e-15 {
		t.Errorf("nnz_mu = %v, want 1.8", f[NNZMu])
	}
	if f[NNZMin] != 1 || f[NNZMax] != 5 {
		t.Errorf("min/max = %v/%v, want 1/5", f[NNZMin], f[NNZMax])
	}
	// sigma = sqrt(((5-1.8)^2 + 4*(1-1.8)^2)/5) = sqrt((10.24+2.56)/5)
	if math.Abs(f[NNZSig]-math.Sqrt(12.8/5)) > 1e-12 {
		t.Errorf("nnz_sig = %v", f[NNZSig])
	}
	if math.Abs(f[MaxMu]-3.2) > 1e-12 || math.Abs(f[MuMin]-0.8) > 1e-12 {
		t.Errorf("max_mu/mu_min = %v/%v", f[MaxMu], f[MuMin])
	}
	// 5 rows all fall in one warp; the warp's longest row has 5 entries.
	if f[CSRMax] != 5 {
		t.Errorf("csr_max = %v, want 5", f[CSRMax])
	}
	// sig_lower: rows below the mean are the 4 diagonal rows, each d=-0.8.
	if math.Abs(f[SigLower]-0.8) > 1e-12 {
		t.Errorf("sig_lower = %v, want 0.8", f[SigLower])
	}
	// sig_higher: only row 0 is above, d=3.2.
	if math.Abs(f[SigHigher]-3.2) > 1e-12 {
		t.Errorf("sig_higher = %v, want 3.2", f[SigHigher])
	}
	// ELL: width 5, slab 25, frac 9/25.
	if f[EllSize] != 25 || math.Abs(f[EllFrac]-9.0/25) > 1e-15 {
		t.Errorf("ell_size/frac = %v/%v", f[EllSize], f[EllFrac])
	}
	// HYB: widths with >=1 entries: all 5 rows, >=2: 1 row (<5/3). So w=1.
	// ELL part stores 5 entries, COO tail 4.
	if f[HybEllSize] != 5 || f[HybCoo] != 4 || math.Abs(f[HybEllFrac]-1) > 1e-15 {
		t.Errorf("hyb = size %v coo %v frac %v", f[HybEllSize], f[HybCoo], f[HybEllFrac])
	}
	// Diagonals: main diagonal plus offsets 1..4 from row 0: 5 total.
	if f[Diagonals] != 5 {
		t.Errorf("diagonals = %v, want 5", f[Diagonals])
	}
	if f[DiaSize] != 25 || math.Abs(f[DiaFrac]-9.0/25) > 1e-15 {
		t.Errorf("dia = size %v frac %v", f[DiaSize], f[DiaFrac])
	}
}

func TestUniformRowsDegenerateStats(t *testing.T) {
	// Every row has exactly 3 entries: sigma and one-sided RMS are zero,
	// ELL has no padding.
	tr := sparse.NewTriplet(40, 40)
	for i := 0; i < 40; i++ {
		for d := 0; d < 3; d++ {
			if err := tr.Add(i, (i+d*7)%40, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	f := Extract(tr.ToCSR())
	if f[NNZSig] != 0 || f[SigLower] != 0 || f[SigHigher] != 0 {
		t.Errorf("uniform rows: sig=%v lower=%v higher=%v, want zeros",
			f[NNZSig], f[SigLower], f[SigHigher])
	}
	if f[EllFrac] != 1 {
		t.Errorf("uniform rows: ell_frac = %v, want 1", f[EllFrac])
	}
	if f[CSRMax] != 3 {
		t.Errorf("csr_max = %v, want 3", f[CSRMax])
	}
	if f[HybCoo] != 0 {
		t.Errorf("hyb_coo = %v, want 0", f[HybCoo])
	}
}

func TestEmptyRowsAllowed(t *testing.T) {
	tr := sparse.NewTriplet(4, 4)
	if err := tr.Add(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	f := Extract(tr.ToCSR())
	if f[NNZMin] != 0 {
		t.Errorf("nnz_min = %v, want 0", f[NNZMin])
	}
	if f[NNZ] != 1 {
		t.Errorf("nnz = %v", f[NNZ])
	}
}

func TestExtractAllAndMatrix(t *testing.T) {
	m := skewed(t)
	vs := ExtractAll([]*sparse.CSR{m, m})
	if len(vs) != 2 || vs[0] != vs[1] {
		t.Fatal("ExtractAll inconsistent")
	}
	rows := Matrix(vs)
	if len(rows) != 2 || len(rows[0]) != Count {
		t.Fatal("Matrix shape wrong")
	}
	// Slice must be a copy.
	s := vs[0].Slice()
	s[0] = -99
	if vs[0][0] == -99 {
		t.Error("Slice aliases the vector")
	}
}

func TestNamesCount(t *testing.T) {
	if len(Names) != Count {
		t.Fatalf("Names has %d entries, want %d", len(Names), Count)
	}
	seen := map[string]bool{}
	for _, n := range Names {
		if seen[n] {
			t.Errorf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
	if got := (Vector{}).String(); got == "" {
		t.Error("String() empty")
	}
}

// TestQuickRowPermutationInvariance property-tests that features that
// depend only on the row-length histogram are invariant under row
// permutations — the foundation of the paper's augmentation strategy.
func TestQuickRowPermutationInvariance(t *testing.T) {
	invariant := []int{NRows, NCols, NNZ, NNZFrac, NNZMu, NNZMin, NNZMax,
		NNZSig, MaxMu, MuMin, SigLower, SigHigher, HybEllSize, HybCoo,
		HybEllFrac, EllFrac, EllSize}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 2+rng.Intn(30), 2+rng.Intn(30)
		tr := sparse.NewTriplet(rows, cols)
		for n := 0; n < rows*2; n++ {
			if tr.Add(rng.Intn(rows), rng.Intn(cols), 1) != nil {
				return false
			}
		}
		m := tr.ToCSR()
		if m.NNZ() == 0 {
			return true
		}
		p, err := m.Permute(rng.Perm(rows), nil)
		if err != nil {
			return false
		}
		fa, fb := Extract(m), Extract(p)
		for _, idx := range invariant {
			if math.Abs(fa[idx]-fb[idx]) > 1e-9*(1+math.Abs(fa[idx])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickFeatureSanity property-tests structural inequalities that must
// hold for any matrix: min <= mu <= max, fractions in [0,1], slab sizes
// at least nnz.
func TestQuickFeatureSanity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		tr := sparse.NewTriplet(rows, cols)
		for n := 0; n < 1+rng.Intn(rows*3); n++ {
			if tr.Add(rng.Intn(rows), rng.Intn(cols), 1+rng.Float64()) != nil {
				return false
			}
		}
		m := tr.ToCSR()
		v := Extract(m)
		if !(v[NNZMin] <= v[NNZMu] && v[NNZMu] <= v[NNZMax]) {
			return false
		}
		for _, idx := range []int{NNZFrac, EllFrac, DiaFrac} {
			if v[idx] < 0 || v[idx] > 1 {
				return false
			}
		}
		if v[EllSize] < v[NNZ] || v[DiaSize] < v[NNZ] {
			return false
		}
		if v[CSRMax] < v[NNZMu]/float64(32) || v[CSRMax] > v[NNZMax] {
			return false
		}
		if v[HybCoo] < 0 || v[HybEllFrac] < 0 || v[HybEllFrac] > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestScratchReuseMatchesFreshExtract feeds one Scratch a sequence of
// matrices of very different shapes (so every buffer must grow, shrink
// and be re-zeroed) and checks each vector against a fresh extraction.
func TestScratchReuseMatchesFreshExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Scratch
	for trial := 0; trial < 40; trial++ {
		rows := 1 + rng.Intn(200)
		cols := 1 + rng.Intn(200)
		tr := sparse.NewTriplet(rows, cols)
		for n := 0; n < 1+rng.Intn(rows*4); n++ {
			if err := tr.Add(rng.Intn(rows), rng.Intn(cols), 1+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		m := tr.ToCSR()
		got := s.Extract(m)
		want := Extract(m)
		if got != want {
			t.Fatalf("trial %d (%dx%d): reused scratch gave\n%v\nwant\n%v", trial, rows, cols, got, want)
		}
	}
}

// TestExtractAllMatchesSequential checks the parallel chunked path
// against per-matrix extraction.
func TestExtractAllMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var ms []*sparse.CSR
	for k := 0; k < 37; k++ {
		rows := 1 + rng.Intn(120)
		cols := 1 + rng.Intn(120)
		tr := sparse.NewTriplet(rows, cols)
		for n := 0; n < 1+rng.Intn(rows*3); n++ {
			if err := tr.Add(rng.Intn(rows), rng.Intn(cols), 1+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		ms = append(ms, tr.ToCSR())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	all := ExtractAll(ms)
	if len(all) != len(ms) {
		t.Fatalf("ExtractAll returned %d vectors for %d matrices", len(all), len(ms))
	}
	for i, m := range ms {
		if want := Extract(m); all[i] != want {
			t.Fatalf("matrix %d: ExtractAll %v != Extract %v", i, all[i], want)
		}
	}
}

// BenchmarkExtractScratch compares the allocating and scratch-reusing
// extraction paths on a small matrix, where the three per-call buffer
// allocations dominate.
func BenchmarkExtractScratch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tr := sparse.NewTriplet(300, 300)
	for n := 0; n < 1500; n++ {
		if err := tr.Add(rng.Intn(300), rng.Intn(300), 1); err != nil {
			b.Fatal(err)
		}
	}
	m := tr.ToCSR()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = Extract(m)
		}
	})
	b.Run("reused", func(b *testing.B) {
		b.ReportAllocs()
		var s Scratch
		for i := 0; i < b.N; i++ {
			_ = s.Extract(m)
		}
	})
}

// emptyCSR builds a rows x cols matrix with zero stored entries through
// the validating constructor.
func emptyCSR(t *testing.T, rows, cols int) *sparse.CSR {
	t.Helper()
	m, err := sparse.NewCSR(rows, cols, make([]int32, rows+1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestExtractDegenerateMatrices checks that every feature of a
// degenerate matrix — zero rows, zero columns, or zero stored entries —
// is finite and zero-safe. Before the clamps, a 0-row matrix emitted
// NaN for nnz_frac/nnz_mu/nnz_sig and MaxInt64 (9.2e18) for nnz_min,
// and the DIA pass paniced sizing a negative occupancy bitmap; those
// values flowed into drift windows and the scaler unguarded.
func TestExtractDegenerateMatrices(t *testing.T) {
	cases := []struct {
		name    string
		m       *sparse.CSR
		allZero bool
	}{
		// The zero-value CSR is the "0 0 0" shape: no rows, no columns.
		{"zero-value 0x0", &sparse.CSR{}, true},
		{"empty 3x4", emptyCSR(t, 3, 4), false},
		{"empty 1x1", emptyCSR(t, 1, 1), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := Extract(tc.m)
			for i, v := range f {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Errorf("%s = %v, want finite and non-negative", Names[i], v)
				}
				if tc.allZero && v != 0 {
					t.Errorf("%s = %v, want 0 on a 0x0 matrix", Names[i], v)
				}
			}
			// Every nnz-derived statistic is zero when there are no
			// stored entries (nnz_min used to report MaxInt64 here).
			for _, idx := range []int{NNZ, NNZFrac, NNZMu, NNZMin, NNZMax, NNZSig} {
				if f[idx] != 0 {
					t.Errorf("%s = %v, want 0 with nnz=0", Names[idx], f[idx])
				}
			}
		})
	}
}

// TestDegenerateMatrixMarketBody runs the smallest parseable 0-nnz
// MatrixMarket body through the same parse+extract path the serve
// handler uses.
func TestDegenerateMatrixMarketBody(t *testing.T) {
	body := "%%MatrixMarket matrix coordinate real general\n1 1 0\n"
	m, err := sparse.ReadMatrixMarketBytes([]byte(body))
	if err != nil {
		t.Fatalf("0-nnz body rejected: %v", err)
	}
	f := Extract(m)
	if f[NRows] != 1 || f[NCols] != 1 || f[NNZ] != 0 {
		t.Fatalf("dims/nnz = %v/%v/%v", f[NRows], f[NCols], f[NNZ])
	}
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("%s = %v, want finite and non-negative", Names[i], v)
		}
	}
}

// TestSlabAdversarialDimensions is the regression test for the int
// overflow in the ELL/DIA/HYB size features: rows * width products like
// (1<<32) * (1<<31) wrap negative in int64 but must come out as large
// positive floats.
func TestSlabAdversarialDimensions(t *testing.T) {
	cases := []struct {
		a, b int
		want float64
	}{
		{0, 0, 0},
		{5, 7, 35},
		{1 << 32, 1 << 31, math.Ldexp(1, 63)}, // wraps to negative as int
		{1 << 62, 1 << 62, math.Ldexp(1, 124)},
		{math.MaxInt64, 2, 2 * float64(math.MaxInt64)},
	}
	for _, tc := range cases {
		got := slab(tc.a, tc.b)
		if got != tc.want {
			t.Errorf("slab(%d, %d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got < 0 {
			t.Errorf("slab(%d, %d) = %v, negative size feature", tc.a, tc.b, got)
		}
	}
	// The wrapped int product really is negative — the thing the float64
	// promotion exists to avoid.
	a, b := 1<<32, 1<<31
	if p := a * b; p >= 0 {
		t.Skipf("int product unexpectedly non-negative (%d)", p)
	}
}
