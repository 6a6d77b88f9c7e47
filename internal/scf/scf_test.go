package scf

import (
	"math"
	"testing"

	"ptdft/internal/grid"
	"ptdft/internal/hamiltonian"
	"ptdft/internal/lattice"
	"ptdft/internal/linalg"
	"ptdft/internal/parallel"
	"ptdft/internal/potential"
	"ptdft/internal/pseudo"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

func siSetup(ecut float64, hybrid bool) (*grid.Grid, *hamiltonian.Hamiltonian) {
	g := grid.MustNew(lattice.MustSiliconSupercell(1, 1, 1), ecut)
	h := hamiltonian.New(g, map[int]*pseudo.Potential{0: pseudo.SiliconAH()},
		hamiltonian.Config{Hybrid: hybrid, Params: xc.HSE06()})
	return g, h
}

func TestGroundStateConvergesLDA(t *testing.T) {
	g, h := siSetup(3, false)
	nb := g.Cell.NumBands() // 16 for Si8
	opt := Defaults()
	opt.TolDensity = 1e-6
	res, err := GroundState(g, h, nb, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("SCF did not converge: density error %g after %d iterations", res.DensityError, res.SCFIterations)
	}
	if e := wavefunc.OrthonormalityError(res.Psi, nb, g.NG); e > 1e-8 {
		t.Errorf("ground state not orthonormal: %g", e)
	}
	if n := potential.IntegrateDensity(g, res.Rho); math.Abs(n-32) > 1e-6 {
		t.Errorf("density integrates to %g, want 32", n)
	}
	if res.Energy.Total() >= 0 {
		t.Errorf("total energy %g, want negative (bound crystal)", res.Energy.Total())
	}
}

func TestGroundStateEigenResiduals(t *testing.T) {
	g, h := siSetup(3, false)
	nb := g.Cell.NumBands()
	res, err := GroundState(g, h, nb, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	ng := g.NG
	hp := make([]complex128, nb*ng)
	h.Apply(hp, res.Psi, nb)
	for j := 0; j < nb; j++ {
		p := res.Psi[j*ng : (j+1)*ng]
		hpj := hp[j*ng : (j+1)*ng]
		theta := real(linalg.Dot(p, hpj))
		var rn float64
		for s := 0; s < ng; s++ {
			d := hpj[s] - complex(theta, 0)*p[s]
			rn += real(d)*real(d) + imag(d)*imag(d)
		}
		rn = math.Sqrt(rn)
		if rn > 5e-2 {
			t.Errorf("band %d eigen-residual %g too large", j, rn)
		}
	}
}

func TestGroundStateBandEnergiesOrderedAfterSort(t *testing.T) {
	g, h := siSetup(3, false)
	nb := g.Cell.NumBands()
	res, err := GroundState(g, h, nb, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	// The Ritz values should come out (weakly) ascending.
	for j := 1; j < nb; j++ {
		if res.BandEnergies[j] < res.BandEnergies[j-1]-1e-6 {
			t.Errorf("band energies not ascending at %d: %g < %g", j, res.BandEnergies[j], res.BandEnergies[j-1])
		}
	}
	_ = g
}

func TestGroundStateHybridConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("hybrid ground state is slow")
	}
	g, h := siSetup(3, true)
	nb := g.Cell.NumBands()
	opt := Defaults()
	opt.MaxSCF = 40
	opt.HybridOuter = 3
	opt.TolDensity = 1e-6
	res, err := GroundState(g, h, nb, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("hybrid SCF did not converge: density error %g", res.DensityError)
	}
	if res.Energy.Exchange >= 0 {
		t.Errorf("exchange energy %g, want negative", res.Energy.Exchange)
	}
}

// maxEigenResidual returns max_j |H psi_j - <psi_j|H|psi_j> psi_j| over the
// bands, with H applied through h.Apply.
func maxEigenResidual(g *grid.Grid, h *hamiltonian.Hamiltonian, psi []complex128, nb int) float64 {
	ng := g.NG
	hp := make([]complex128, nb*ng)
	h.Apply(hp, psi, nb)
	var worst float64
	for j := 0; j < nb; j++ {
		p := psi[j*ng : (j+1)*ng]
		hpj := hp[j*ng : (j+1)*ng]
		theta := real(linalg.Dot(p, hpj))
		var rn float64
		for s := 0; s < ng; s++ {
			d := hpj[s] - complex(theta, 0)*p[s]
			rn += real(d)*real(d) + imag(d)*imag(d)
		}
		worst = math.Max(worst, math.Sqrt(rn))
	}
	return worst
}

// TestGroundStateHybridFixedPoint pins the exact-exchange fixed point of
// the Si8 ecut-3 HSE Defaults() ground state. The eigensolver steps run
// on the exchange compressed on the current iterate, which is exact on
// the iterate's span, so each phase must land on the fixed point of the
// exact operator V_X[Phi_k]: -0.9858249417 Ha, the value the solve gave
// when every step applied V_X exactly (measured 6.2e-9 Ha apart). The
// final orbitals, pushed through the exact operator, must be eigenvectors
// at least as tight as that solve's: its worst band residual was
// 2.127e-8 (this solve: 6.1e-9).
func TestGroundStateHybridFixedPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("hybrid ground state is slow")
	}
	g, h := siSetup(3, true)
	nb := g.Cell.NumBands()
	res, err := GroundState(g, h, nb, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("hybrid SCF did not converge: density error %g", res.DensityError)
	}
	const want = -0.9858249417
	if e := res.Energy.Total(); math.Abs(e-want) > 1e-8 {
		t.Errorf("total energy %.10f Ha, want %.10f within 1e-8 (off by %.2e)", e, want, e-want)
	}
	if r := maxEigenResidual(g, h, res.Psi, nb); r > 2.127e-8 {
		t.Errorf("worst exact-operator eigen-residual %.3e, want <= 2.127e-8", r)
	}
}

// TestGroundStateHybridLeavesExactOperator: the iterate compression lives
// only inside GroundState. Afterwards the Hamiltonian reports no ACE, no
// fallbacks, and Apply is the exact exchange plus the local terms - bit
// for bit the sum a semilocal twin on the same potential and the bare
// fock.Operator produce.
func TestGroundStateHybridLeavesExactOperator(t *testing.T) {
	g, h := siSetup(2, true)
	nb := g.Cell.NumBands()
	opt := Defaults()
	opt.HybridOuter = 1
	res, err := GroundState(g, h, nb, opt)
	if err != nil {
		t.Fatal(err)
	}
	if h.ACEActive() {
		t.Error("ACEActive after a UseACE=false ground state")
	}
	if n, err := h.ACEFallbacks(); n != 0 || err != nil {
		t.Errorf("ACEFallbacks = (%d, %v), want (0, nil)", n, err)
	}

	// Semilocal twin on the identical effective potential.
	_, local := siSetup(2, false)
	veff, _ := potential.SCFPotential(g, res.Rho, h.VlocDense(), h.ExScale())
	local.SetVeffDense(veff, h.PotEnergies)
	for i, v := range local.VeffWave() {
		if v != h.VeffWave()[i] {
			t.Fatalf("twin potential differs at %d", i)
		}
	}
	ng := g.NG
	op := h.FockOperator()
	check := func(what string, tol float64) {
		got := make([]complex128, nb*ng)
		h.Apply(got, res.Psi, nb)
		want := make([]complex128, nb*ng)
		local.Apply(want, res.Psi, nb)
		op.Apply(want, res.Psi, nb)
		for i := range got {
			if d := got[i] - want[i]; math.Hypot(real(d), imag(d)) > tol {
				t.Fatalf("%s: Apply differs from exact exchange + local terms at %d: %v vs %v", what, i, got[i], want[i])
			}
		}
	}
	// Off the reference set the exchange is folded into the real-space
	// band before the single back transform, so the sums round apart.
	check("generic", 1e-12)
	// On the reference set both sides run the same symmetric
	// ApplyToReference after the same local application: bit for bit.
	h.SetFockOrbitals(res.Psi, nb)
	check("reference", 0)
}

// TestGroundStateHybridIndependentOfWorkers: two cold hybrid ground states,
// one on a single worker and one on four, return bit-identical orbitals -
// the iterate compression's exact apply, overlap, Cholesky and per-band
// application fold in a fixed order like the rest of the SCF.
func TestGroundStateHybridIndependentOfWorkers(t *testing.T) {
	solve := func(workers int) []complex128 {
		defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(workers))
		g, h := siSetup(2, true)
		res, err := GroundState(g, h, g.Cell.NumBands(), Defaults())
		if err != nil {
			t.Fatal(err)
		}
		return res.Psi
	}
	a, b := solve(1), solve(4)
	if len(a) != len(b) {
		t.Fatalf("psi length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("1-worker and 4-worker ground states differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGapComputation(t *testing.T) {
	bands := []float64{-0.5, -0.4, -0.1, 0.2}
	gap, err := Gap(bands, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gap-0.3) > 1e-12 {
		t.Errorf("gap = %g, want 0.3", gap)
	}
	if _, err := Gap(bands, 4); err == nil {
		t.Error("expected error when all bands occupied")
	}
	if _, err := Gap(bands, 0); err == nil {
		t.Error("expected error for zero occupation")
	}
}

func TestTeterPreconditioner(t *testing.T) {
	// ~1 at x=0, decaying beyond; monotone in between.
	if math.Abs(teter(0)-1) > 1e-12 {
		t.Errorf("teter(0) = %g, want 1", teter(0))
	}
	if teter(10) > 0.1 {
		t.Errorf("teter(10) = %g, want small", teter(10))
	}
	prev := teter(0)
	for x := 0.1; x < 20; x += 0.1 {
		v := teter(x)
		if v > prev+1e-12 {
			t.Fatalf("teter not monotone at %g", x)
		}
		prev = v
	}
}

func TestGroundStateRejectsZeroBands(t *testing.T) {
	g, h := siSetup(3, false)
	if _, err := GroundState(g, h, 0, Defaults()); err == nil {
		t.Error("expected error for nb=0")
	}
}
