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
