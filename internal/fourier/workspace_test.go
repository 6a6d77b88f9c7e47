package fourier

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"ptdft/internal/lanes"
)

func randGrid(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func packed(x []complex128) lanes.Slab {
	s := lanes.New(len(x))
	lanes.Pack(s, x)
	return s
}

// A workspace drawn from the plan's pool (the one-shot callers' path) and
// an explicitly owned one (the hot loops' path) must give the same
// transform, for mixed-radix and Bluestein axis sizes alike (67 is prime >
// maxDirectRadix).
func TestApplySerialWSMatchesApplySerial(t *testing.T) {
	for _, dims := range [][3]int{{8, 9, 10}, {4, 67, 3}, {5, 5, 5}} {
		p := MustPlan3(dims[0], dims[1], dims[2])
		src := packed(randGrid(p.Size(), 1))
		want, got := lanes.New(p.Size()), lanes.New(p.Size())
		ws := p.NewWorkspace()
		for _, inverse := range []bool{false, true} {
			pooled := p.CheckoutWorkspace()
			p.RawSlabWS(want, src, inverse, pooled)
			p.ReturnWorkspace(pooled)
			p.RawSlabWS(got, src, inverse, ws)
			for i := range want.Re {
				if want.Re[i] != got.Re[i] || want.Im[i] != got.Im[i] {
					t.Fatalf("dims %v inverse=%v: pooled and owned workspaces differ at %d", dims, inverse, i)
				}
			}
		}
	}
}

// RawSlabWS is unnormalized in both directions: the inverse of the forward
// transform returns N times the input.
func TestRawSerialWSUnnormalized(t *testing.T) {
	p := MustPlan3(6, 5, 4)
	n := p.Size()
	src := randGrid(n, 2)
	s := packed(src)
	ws := p.NewWorkspace()
	p.RawSlabWS(s, s, false, ws)
	p.RawSlabWS(s, s, true, ws)
	scale := complex(float64(n), 0)
	for i := range src {
		if d := cmplx.Abs(complex(s.Re[i], s.Im[i]) - src[i]*scale); d > 1e-9 {
			t.Fatalf("raw round trip differs from N*x at %d by %g", i, d)
		}
	}
}

// The fused Poisson round trip must equal the unfused raw forward +
// pointwise kernel multiply + raw inverse / N sequence, for mixed-radix and
// Bluestein axis sizes alike (67 is prime > maxDirectRadix).
func TestPoissonSerialMatchesManual(t *testing.T) {
	for _, dims := range [][3]int{{8, 9, 10}, {4, 67, 3}} {
		p := MustPlan3(dims[0], dims[1], dims[2])
		n := p.Size()
		rng := rand.New(rand.NewSource(3))
		kernel := make([]float64, n)
		for i := range kernel {
			kernel[i] = rng.Float64() + 0.1
		}
		src := randGrid(n, 4)
		ws := p.NewWorkspace()

		want := packed(src)
		p.RawSlabWS(want, want, false, ws)
		for i := range kernel {
			want.Re[i] *= kernel[i] / float64(n)
			want.Im[i] *= kernel[i] / float64(n)
		}
		p.RawSlabWS(want, want, true, ws)

		got := packed(src)
		p.PoissonSlabWS(got, kernel, ws)
		w := make([]complex128, n)
		lanes.Unpack(w, want)
		if d := maxDiff(w, got); d > 1e-9 {
			t.Errorf("dims %v: fused Poisson differs by %g", dims, d)
		}
	}
}

// The fully fused contraction must equal the spelled-out pair product,
// Poisson solve, and accumulation.
func TestContractSerialMatchesManual(t *testing.T) {
	p := MustPlan3(6, 9, 5)
	n := p.Size()
	rng := rand.New(rand.NewSource(5))
	kernel := make([]float64, n)
	for i := range kernel {
		kernel[i] = rng.Float64() + 0.1
	}
	phi := randGrid(n, 6)
	src := randGrid(n, 7)
	scale := -0.25
	ws := p.NewWorkspace()

	pair := make([]complex128, n)
	for k := range pair {
		pair[k] = cmplx.Conj(phi[k]) * src[k]
	}
	v := packed(pair)
	p.PoissonSlabWS(v, kernel, ws)
	lanes.Unpack(pair, v)
	want := randGrid(n, 8) // nonzero start: Contract accumulates
	got := packed(want)
	for k := range want {
		want[k] += complex(scale, 0) * phi[k] * pair[k]
	}

	p.ContractSlabWS(got, packed(phi), packed(src), lanes.New(n), kernel, scale, ws)
	if d := maxDiff(want, got); d > 1e-9 {
		t.Errorf("fused contraction differs by %g", d)
	}
}

// With caller-owned scratch every grid transform the engine offers - raw,
// pruned, Poisson, one-sided and two-sided contraction - is allocation-free,
// including the Bluestein fallback.
func TestSerialTransformAllocs(t *testing.T) {
	for _, dims := range [][3]int{{8, 9, 10}, {4, 67, 3}} {
		p := MustPlan3(dims[0], dims[1], dims[2])
		n := p.Size()
		kernel := make([]float64, n)
		for i := range kernel {
			kernel[i] = 1
		}
		buf := packed(randGrid(n, 9))
		dst := lanes.New(n)
		phi := packed(randGrid(n, 10))
		pair := lanes.New(n)
		ws := p.NewWorkspace()
		if a := testing.AllocsPerRun(10, func() { p.RawSlabWS(dst, buf, false, ws) }); a > 0 {
			t.Errorf("dims %v: RawSlabWS allocates %v per run", dims, a)
		}
		sup := Support{Rows: []int{0, 1}, Planes: []int{0}}
		if a := testing.AllocsPerRun(10, func() {
			p.PrunedSlabWS(dst, true, sup, ws)
			p.PrunedSlabWS(dst, false, sup, ws)
		}); a > 0 {
			t.Errorf("dims %v: PrunedSlabWS allocates %v per run", dims, a)
		}
		if a := testing.AllocsPerRun(10, func() { p.PoissonSlabWS(buf, kernel, ws) }); a > 0 {
			t.Errorf("dims %v: PoissonSlabWS allocates %v per run", dims, a)
		}
		if a := testing.AllocsPerRun(10, func() {
			p.ContractSlabWS(dst, phi, buf, pair, kernel, 1, ws)
			p.ContractPairSlabWS(dst, buf, phi, phi, pair, kernel, 1, false, ws)
		}); a > 0 {
			t.Errorf("dims %v: contractions allocate %v per run", dims, a)
		}
	}
}
