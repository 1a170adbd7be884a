package main

import (
	"fmt"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/gpusim"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// pattern is one generated sparsity pattern, rendered as a MatrixMarket
// body whose values can be refreshed per request without touching the
// structure.
type pattern struct {
	m *sparse.CSR
	// body is the pattern's MatrixMarket text; every value is written
	// as "0.ddddddddd" and valOff holds the offset of its nine digits.
	body   []byte
	valOff []int32
	// timesMs are the gpusim kernel times per arch (feedback reports),
	// keyed by artifact arch name, in serve.KernelFormatNames order.
	timesMs map[string][]float64
}

// valueDigits is the fixed digit count of every value in a body.
const valueDigits = 9

// genPatterns draws up to n patterns from the generator families with
// the given seed and scale, keeping only matrices every arch can run
// (feedback reports carry a time for every format).
func genPatterns(seed int64, n int, scale float64) ([]*pattern, error) {
	items, err := dataset.Generate(dataset.Config{Seed: seed, BaseCount: n, Scale: scale, DropELLFailures: true})
	if err != nil {
		return nil, fmt.Errorf("generating request patterns: %w", err)
	}
	var out []*pattern
	for _, it := range items {
		p := &pattern{m: it.Matrix, timesMs: map[string][]float64{}}
		prof := gpusim.NewProfile(it.Matrix)
		feasible := true
		for _, a := range gpusim.Archs() {
			meas := a.Measure(it.Name, prof)
			if !meas.Feasible() {
				feasible = false
				break
			}
			t := make([]float64, len(meas.Times))
			for k, s := range meas.Times {
				t[k] = s * 1e3
			}
			p.timesMs[serve.NormalizeArch(a.Name)] = t
		}
		if !feasible {
			continue
		}
		p.body, p.valOff = renderPattern(it.Matrix)
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no feasible request patterns for seed %d", seed)
	}
	return out, nil
}

// renderPattern writes m as a coordinate MatrixMarket body with
// fixed-width placeholder values.
func renderPattern(m *sparse.CSR) ([]byte, []int32) {
	rows, cols := m.Dims()
	buf := make([]byte, 0, 64+m.NNZ()*(valueDigits+16))
	buf = append(buf, "%%MatrixMarket matrix coordinate real general\n"...)
	buf = fmt.Appendf(buf, "%d %d %d\n", rows, cols, m.NNZ())
	offs := make([]int32, 0, m.NNZ())
	rowPtr, colIdx := m.RowPtr(), m.ColIdx()
	for i := 0; i < rows; i++ {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			buf = strconv.AppendInt(buf, int64(i+1), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(colIdx[k]+1), 10)
			buf = append(buf, " 0."...)
			offs = append(offs, int32(len(buf)))
			buf = append(buf, "500000000\n"...)
		}
	}
	return buf, offs
}

// rng is splitmix64: a tiny deterministic generator for per-request
// values and plans, cheap enough to run on the client's hot path.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// freshBody appends p's body to dst[:0] with every value redrawn, so no
// two requests ever send the same bytes while the structure — and so
// the 21 structural features and the expected answer — stays p's.
func (p *pattern) freshBody(dst []byte, r *rng) []byte {
	dst = append(dst[:0], p.body...)
	for _, off := range p.valOff {
		v := 100000000 + r.next()%900000000 // nine digits, first nonzero
		for k := valueDigits - 1; k >= 0; k-- {
			dst[int(off)+k] = byte('0' + v%10)
			v /= 10
		}
	}
	return dst
}
