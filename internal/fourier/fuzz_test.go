package fourier

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ptdft/internal/lanes"
)

// FuzzLaneVsNaive is the property pin of the lane-blocked SoA transform
// engine: for ANY (grid, nb, lane-remainder) shape the slab passes must
// agree with the naive separable DFT oracle (naiveDFT3) to 1e-12 scaled by
// the transform magnitude. The seed corpus crosses lane-multiple pencil
// counts, off-by-one remainders, grids smaller than one lane group, axes
// that are not multiples of lanes.Width, and Bluestein lengths (primes
// above maxDirectRadix); the fuzzer then mutates freely inside the capped
// shape space. The corpus runs as part of a plain `go test`, so the
// property is checked on every CI run; `go test -fuzz FuzzLaneVsNaive
// ./internal/fourier` explores beyond it.
func FuzzLaneVsNaive(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(8), uint8(4), int64(1))
	f.Add(uint8(8), uint8(9), uint8(10), uint8(3), int64(2))
	f.Add(uint8(5), uint8(7), uint8(3), uint8(1), int64(3))
	f.Add(uint8(4), uint8(67), uint8(3), uint8(2), int64(4))            // Bluestein axis: 67 is prime
	f.Add(uint8(1), uint8(16), uint8(5), uint8(6), int64(5))            // single-pencil x, lane-multiple y
	f.Add(uint8(13), uint8(2), uint8(9), uint8(5), int64(6))            // 13 and 9: no lane multiple anywhere
	f.Add(uint8(31), uint8(4), uint8(4), uint8(2), int64(7))            // Bluestein axis: 31 is prime
	f.Add(uint8(3), uint8(3), uint8(3), uint8(1), int64(8))             // smaller than one lane group
	f.Add(uint8(9-1), uint8(9-1), uint8(9-1), uint8(2-1), int64(9))     // 9x9x9, nb 2: the Si8 wavefunction box at 3 Ha
	f.Add(uint8(18-1), uint8(18-1), uint8(18-1), uint8(1-1), int64(10)) // 18x18x18, nb 1: the Si8 dense box at 3 Ha
	f.Fuzz(func(t *testing.T, bx, by, bz, bnb uint8, seed int64) {
		nx := 1 + int(bx)%67
		ny := 1 + int(by)%67
		nz := 1 + int(bz)%67
		nb := 1 + int(bnb)%6
		n := nx * ny * nz
		if n > 18*18*18 { // the dense box of the production Si8 workloads
			t.Skip("grid too large for a fuzz iteration")
		}
		p := MustPlan3(nx, ny, nz)
		ws := p.NewWorkspace()
		rng := rand.New(rand.NewSource(seed))
		src := randGridRng(rng, n)
		kernel := make([]float64, n)
		for i := range kernel {
			kernel[i] = rng.Float64()
		}
		// The tolerance is absolute against ~N(0,1) inputs; scale it with
		// the magnitude the unnormalized forward transform accumulates.
		tol := 1e-12 * (1 + math.Sqrt(float64(n)))
		check := func(what string, ref []complex128, got lanes.Slab) {
			t.Helper()
			if d := maxDiff(ref, got); d > tol {
				t.Errorf("%dx%dx%d nb=%d: %s lane vs naive max diff %g (tol %g)", nx, ny, nz, nb, what, d, tol)
			}
		}

		// Raw transform, forward and inverse.
		for _, inverse := range []bool{false, true} {
			ref := naiveDFT3(src, nx, ny, nz, inverse)
			s, d := lanes.New(n), lanes.New(n)
			lanes.Pack(s, src)
			p.RawSlabWS(d, s, inverse, ws)
			check("raw transform", ref, d)
		}

		// Fused Poisson solve.
		ref := naivePoisson(src, kernel, nx, ny, nz)
		s := lanes.New(n)
		lanes.Pack(s, src)
		p.PoissonSlabWS(s, kernel, ws)
		check("Poisson", ref, s)

		// nb-band contraction: the fock-style accumulation of nb pair
		// contractions into nb accumulator rows.
		phi := randGridRng(rng, nb*n)
		refAcc := make([]complex128, nb*n)
		sphi, sacc, ssrc, sbuf := lanes.New(nb*n), lanes.New(nb*n), lanes.New(n), lanes.New(n)
		lanes.Pack(sphi, phi)
		lanes.Pack(ssrc, src)
		for b := 0; b < nb; b++ {
			naiveContract(refAcc[b*n:(b+1)*n], phi[b*n:(b+1)*n], src, kernel, -0.25, nx, ny, nz)
			p.ContractSlabWS(sacc.Row(b, n), sphi.Row(b, n), ssrc, sbuf, kernel, -0.25, ws)
		}
		check("nb-band contraction", refAcc, sacc)

		// Two-sided pair contraction, off-diagonal and diagonal, against a
		// spelled-out oracle (no kernel-symmetry assumption: conj(v) is
		// taken explicitly).
		if nb >= 2 {
			phiI, phiJ := phi[:n], phi[n:2*n]
			pair := make([]complex128, n)
			for i := range pair {
				pair[i] = cmplx.Conj(phiI[i]) * phiJ[i]
			}
			v := naivePoisson(pair, kernel, nx, ny, nz)
			refI := make([]complex128, n)
			refJ := make([]complex128, n)
			for i := range v {
				refJ[i] += -0.25 * phiI[i] * v[i]
				refI[i] += -0.25 * phiJ[i] * cmplx.Conj(v[i])
			}
			accI, accJ := lanes.New(n), lanes.New(n)
			p.ContractPairSlabWS(accI, accJ, sphi.Row(0, n), sphi.Row(1, n), sbuf, kernel, -0.25, false, ws)
			check("pair contraction accJ", refJ, accJ)
			check("pair contraction accI", refI, accI)
		}
		refD := make([]complex128, n)
		naiveContract(refD, src, src, kernel, -0.25, nx, ny, nz)
		accD := lanes.New(n)
		p.ContractPairSlabWS(accD, accD, ssrc, ssrc, sbuf, kernel, -0.25, true, ws)
		check("diagonal pair contraction", refD, accD)
	})
}
