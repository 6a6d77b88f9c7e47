package fourier

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ptdft/internal/lanes"
)

// slabGrids crosses the lane-remainder space: pencil counts that are
// multiples of lanes.Width, off-by-one remainders, tiny grids smaller than
// one lane group, and a Bluestein axis (67 is prime > maxDirectRadix).
var slabGrids = [][3]int{
	{8, 8, 8},
	{8, 9, 10},
	{5, 7, 3},
	{4, 6, 12},
	{3, 3, 3},
	{1, 16, 5},
	{4, 67, 3},
	{13, 2, 9},
}

func randGridRng(rng *rand.Rand, n int) []complex128 {
	c := make([]complex128, n)
	for i := range c {
		c[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return c
}

func maxDiff(a []complex128, s lanes.Slab) float64 {
	var m float64
	for i, v := range a {
		if d := math.Abs(real(v) - s.Re[i]); d > m {
			m = d
		}
		if d := math.Abs(imag(v) - s.Im[i]); d > m {
			m = d
		}
	}
	return m
}

// naivePoisson is the oracle of the fused round trip:
// IFFT[kernel ⊙ FFT[x]] / N through the naive separable DFT.
func naivePoisson(x []complex128, kernel []float64, nx, ny, nz int) []complex128 {
	f := naiveDFT3(x, nx, ny, nz, false)
	invN := 1 / float64(len(x))
	for i := range f {
		f[i] *= complex(kernel[i]*invN, 0)
	}
	return naiveDFT3(f, nx, ny, nz, true)
}

// naiveContract is the oracle of the fused contraction:
// dst += scale * phi ⊙ Poisson[conj(phi) ⊙ src].
func naiveContract(dst, phi, src []complex128, kernel []float64, scale float64, nx, ny, nz int) {
	pair := make([]complex128, len(src))
	for i := range pair {
		pair[i] = cmplx.Conj(phi[i]) * src[i]
	}
	v := naivePoisson(pair, kernel, nx, ny, nz)
	for i := range dst {
		dst[i] += complex(scale, 0) * phi[i] * v[i]
	}
}

// The *MatchesSerial tests pin each slab pass against the naive separable
// DFT oracle (naiveDFT3), one grid at a time across slabGrids.

func TestRawSlabMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range slabGrids {
		p := MustPlan3(dims[0], dims[1], dims[2])
		n := p.Size()
		src := randGridRng(rng, n)
		for _, inverse := range []bool{false, true} {
			ref := naiveDFT3(src, dims[0], dims[1], dims[2], inverse)
			ws := p.NewWorkspace()

			ss := lanes.New(n)
			lanes.Pack(ss, src)
			ds := lanes.New(n)
			p.RawSlabWS(ds, ss, inverse, ws)
			if d := maxDiff(ref, ds); d > 1e-12 {
				t.Errorf("grid %v inverse=%v: slab vs naive max diff %g", dims, inverse, d)
			}
			// In-place (dst == src) must match too.
			p.RawSlabWS(ss, ss, inverse, ws)
			if d := maxDiff(ref, ss); d > 1e-12 {
				t.Errorf("grid %v inverse=%v: in-place slab max diff %g", dims, inverse, d)
			}
		}
	}
}

func TestPoissonSlabMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dims := range slabGrids {
		p := MustPlan3(dims[0], dims[1], dims[2])
		n := p.Size()
		src := randGridRng(rng, n)
		kernel := make([]float64, n)
		for i := range kernel {
			kernel[i] = rng.Float64()
		}
		ws := p.NewWorkspace()

		ref := naivePoisson(src, kernel, dims[0], dims[1], dims[2])

		s := lanes.New(n)
		lanes.Pack(s, src)
		p.PoissonSlabWS(s, kernel, ws)
		if d := maxDiff(ref, s); d > 1e-12 {
			t.Errorf("grid %v: Poisson slab vs naive max diff %g", dims, d)
		}
	}
}

func TestContractSlabMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dims := range slabGrids {
		p := MustPlan3(dims[0], dims[1], dims[2])
		n := p.Size()
		phi := randGridRng(rng, n)
		src := randGridRng(rng, n)
		dst0 := randGridRng(rng, n)
		kernel := make([]float64, n)
		for i := range kernel {
			kernel[i] = rng.Float64()
		}
		scale := -0.3125
		ws := p.NewWorkspace()

		ref := append([]complex128(nil), dst0...)
		naiveContract(ref, phi, src, kernel, scale, dims[0], dims[1], dims[2])

		sphi, ssrc, sdst, sbuf := lanes.New(n), lanes.New(n), lanes.New(n), lanes.New(n)
		lanes.Pack(sphi, phi)
		lanes.Pack(ssrc, src)
		lanes.Pack(sdst, dst0)
		p.ContractSlabWS(sdst, sphi, ssrc, sbuf, kernel, scale, ws)
		if d := maxDiff(ref, sdst); d > 1e-12 {
			t.Errorf("grid %v: Contract slab vs naive max diff %g", dims, d)
		}
	}
}

// randomSupport draws a support of about half the rows of a grid, with
// its planes, and zeroes src outside it.
func randomSupport(rng *rand.Rand, nx, ny, nz int, src lanes.Slab) Support {
	var sup Support
	for row := 0; row < nx*ny; row++ {
		if rng.Intn(2) == 0 {
			for k := row * nz; k < (row+1)*nz; k++ {
				src.Re[k], src.Im[k] = 0, 0
			}
			continue
		}
		sup.Rows = append(sup.Rows, row)
		if ix := row / ny; len(sup.Planes) == 0 || sup.Planes[len(sup.Planes)-1] != ix {
			sup.Planes = append(sup.Planes, ix)
		}
	}
	return sup
}

// PrunedSlabWS skips pencils that are zero (inverse) or never read
// (forward); on every grid of slabGrids, the Bluestein axis included, it
// must equal RawSlabWS bit for bit where it is defined.
func TestPrunedSlabMatchesRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, dims := range slabGrids {
		p := MustPlan3(dims[0], dims[1], dims[2])
		n := p.Size()
		ws := p.NewWorkspace()
		src := lanes.New(n)
		lanes.Pack(src, randGridRng(rng, n))
		sup := randomSupport(rng, dims[0], dims[1], dims[2], src)
		for _, inverse := range []bool{false, true} {
			want, got := lanes.New(n), lanes.New(n)
			p.RawSlabWS(want, src, inverse, ws)
			copy(got.Re, src.Re)
			copy(got.Im, src.Im)
			p.PrunedSlabWS(got, inverse, sup, ws)
			idx := make([]int, 0, n)
			if inverse {
				for i := 0; i < n; i++ {
					idx = append(idx, i)
				}
			} else {
				for _, row := range sup.Rows {
					for k := row * dims[2]; k < (row+1)*dims[2]; k++ {
						idx = append(idx, k)
					}
				}
			}
			for _, i := range idx {
				if math.Float64bits(got.Re[i]) != math.Float64bits(want.Re[i]) || math.Float64bits(got.Im[i]) != math.Float64bits(want.Im[i]) {
					t.Fatalf("grid %v inverse=%v: pruned differs from raw at %d", dims, inverse, i)
				}
			}
		}
	}
}

func TestSlabTransformAllocs(t *testing.T) {
	for _, dims := range [][3]int{{8, 9, 10}, {4, 67, 3}} {
		p := MustPlan3(dims[0], dims[1], dims[2])
		n := p.Size()
		s := lanes.New(n)
		kernel := make([]float64, n)
		ws := p.NewWorkspace()
		p.PoissonSlabWS(s, kernel, ws) // warm
		allocs := testing.AllocsPerRun(5, func() {
			p.RawSlabWS(s, s, false, ws)
			p.PoissonSlabWS(s, kernel, ws)
		})
		if allocs != 0 {
			t.Errorf("grid %v: slab transforms allocated %v per run", dims, allocs)
		}
	}
}

func BenchmarkPoissonSlab(b *testing.B) {
	p := MustPlan3(36, 36, 36)
	n := p.Size()
	s := lanes.New(n)
	for i := 0; i < n; i++ {
		s.Re[i] = float64(i%17) * 0.1
	}
	kernel := make([]float64, n)
	for i := range kernel {
		kernel[i] = 1 / float64(i+1)
	}
	ws := p.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PoissonSlabWS(s, kernel, ws)
	}
}
