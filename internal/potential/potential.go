// Package potential evaluates the density-dependent local potentials of
// Eq. 2: the electron density on the dense grid, the Hartree potential
// (Poisson solve in G space), the semi-local exchange-correlation
// potential, and the static local pseudopotential assembled from form
// factors and structure factors. These are the "others" components of the
// paper's cost breakdown (section 3.4) - cheap in absolute terms but the
// part that limits strong scaling once the Fock operator is accelerated.
package potential

import (
	"math"
	"sync"

	"ptdft/internal/fourier"
	"ptdft/internal/grid"
	"ptdft/internal/lanes"
	"ptdft/internal/parallel"
	"ptdft/internal/pseudo"
	"ptdft/internal/xc"
)

// Energies collects the local-potential energy contributions (Ha).
type Energies struct {
	Hartree float64
	XC      float64
	Local   float64
}

// BuildVloc assembles the static local pseudopotential on the dense grid in
// real space: V(G) = (1/Omega) * sum_s v_s(|G|) S_s(G), with the G = 0 term
// set to zero (it cancels against the Hartree and ion-ion G = 0 terms for a
// neutral cell; the constant shift does not affect dynamics).
func BuildVloc(g *grid.Grid, pots map[int]*pseudo.Potential) []float64 {
	coeff := lanes.New(g.NDTot)
	invOmega := 1 / g.Volume()
	// Group atoms by species once.
	bySpecies := map[int][][3]float64{}
	for _, a := range g.Cell.Atoms {
		bySpecies[a.Species] = append(bySpecies[a.Species], a.Pos)
	}
	parallel.ForBlock(g.NDTot, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			g2 := g.G2Dense[k]
			if g2 < 1e-12 {
				continue // G = 0 handled by convention
			}
			gv := g.GVecDense[k]
			var are, aim float64
			for s, positions := range bySpecies {
				pot, ok := pots[s]
				if !ok {
					continue
				}
				ff := pot.LocalFormFactor(g2)
				var sre, sim float64
				for _, tau := range positions {
					ph := gv[0]*tau[0] + gv[1]*tau[1] + gv[2]*tau[2]
					s, c := math.Sincos(-ph)
					sre += c
					sim += s
				}
				are += ff * sre
				aim += ff * sim
			}
			coeff.Re[k] = are * invOmega
			coeff.Im[k] = aim * invOmega
		}
	})
	// The field is real: keep Re of the synthesis.
	g.DenseInverse(coeff, coeff)
	return coeff.Re
}

// Density accumulates the electron density rho(r) = occ * sum_i |psi_i(r)|^2
// on the dense grid from sphere-coefficient bands (band-major, nb x NG).
// occ is the orbital occupation (2 for spin-restricted).
//
// Bands go in waves of one band per worker: each worker turns its band into
// |psi_i|^2 in its own box, then the wave's boxes are added into rho in band
// order. Every point therefore sums bands 0, 1, ..., nb-1 in that order,
// whatever the worker count or finishing order, so rho is bit-identical on
// any core count - the SCF cache key, the split-equals-continuous
// identities and every restart rely on this. The boxes come from a pool, so
// the steady state allocates no dense grid per band.
func Density(g *grid.Grid, bands []complex128, nb int, occ float64) []float64 {
	n := g.NDTot
	rho := make([]float64, n)
	wss := make([]*bandScratch, parallel.NumWorkers(nb))
	for w := range wss {
		wss[w] = getBandScratch(g)
	}
	for b0 := 0; b0 < nb; b0 += len(wss) {
		wave := wss[:min(len(wss), nb-b0)]
		parallel.For(len(wave), func(k int) {
			box := wave[k].box
			i := b0 + k
			g.ToRealDenseSlabWS(box, bands[i*g.NG:(i+1)*g.NG], wave[k].ws)
			for j, re := range box.Re {
				im := box.Im[j]
				box.Re[j] = occ * (re*re + im*im)
			}
		})
		parallel.ForBlock(n, func(lo, hi int) {
			for _, sc := range wave {
				d := sc.box.Re
				for j := lo; j < hi; j++ {
					rho[j] += d[j]
				}
			}
		})
	}
	for _, sc := range wss {
		bandPool.Put(sc)
	}
	return rho
}

// bandScratch is one worker's Density scratch: a dense box and the FFT
// scratch of the plan it was built for.
type bandScratch struct {
	plan *fourier.Plan3
	box  lanes.Slab
	ws   *fourier.Workspace3
}

// bandPool recycles Density scratch. One process may serve several grids
// (the job server runs specs of different sizes), so checkout drops
// entries built for another grid.
var bandPool sync.Pool // *bandScratch

func getBandScratch(g *grid.Grid) *bandScratch {
	if sc, ok := bandPool.Get().(*bandScratch); ok && sc.plan == g.PlanD {
		return sc
	}
	return &bandScratch{plan: g.PlanD, box: lanes.New(g.NDTot), ws: g.PlanD.NewWorkspace()}
}

// Hartree solves the Poisson equation for the given density and returns the
// Hartree potential on the dense grid together with the Hartree energy.
// The G = 0 component is dropped (jellium compensation).
func Hartree(g *grid.Grid, rho []float64) ([]float64, float64) {
	work := lanes.New(g.NDTot)
	copy(work.Re, rho)
	g.DenseForward(work, work)
	parallel.ForBlock(g.NDTot, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			g2 := g.G2Dense[k]
			if g2 < 1e-12 {
				work.Re[k], work.Im[k] = 0, 0
				continue
			}
			work.Re[k] *= 4 * math.Pi / g2
			work.Im[k] *= 4 * math.Pi / g2
		}
	})
	// The potential is real: keep Re of the synthesis.
	g.DenseInverse(work, work)
	vh := work.Re
	var eh float64
	for i := range rho {
		eh += vh[i] * rho[i]
	}
	eh *= 0.5 * g.DV()
	return vh, eh
}

// xcChunk is the fixed block length of the XC energy sum. Partial sums over
// consecutive blocks are folded in block order, so the energy does not
// depend on how many workers computed the blocks.
const xcChunk = 4096

// XCPotential evaluates the semi-local exchange-correlation potential and
// energy for the density. exScale attenuates the semi-local exchange when a
// hybrid functional carries part of it through the Fock operator.
func XCPotential(rho []float64, exScale, dv float64) ([]float64, float64) {
	v := make([]float64, len(rho))
	part := make([]float64, (len(rho)+xcChunk-1)/xcChunk)
	parallel.For(len(part), func(c int) {
		var acc float64
		for i := c * xcChunk; i < min((c+1)*xcChunk, len(rho)); i++ {
			eps, pot := xc.LDA(rho[i], exScale)
			v[i] = pot
			acc += eps * rho[i]
		}
		part[c] = acc
	})
	var exc float64
	for _, p := range part {
		exc += p
	}
	return v, exc * dv
}

// SCFPotential bundles the density-dependent potential assembly: given the
// density it returns Veff = Vloc + VH + Vxc on the dense grid and the
// energy pieces.
func SCFPotential(g *grid.Grid, rho, vloc []float64, exScale float64) ([]float64, Energies) {
	vh, eh := Hartree(g, rho)
	vxc, exc := XCPotential(rho, exScale, g.DV())
	var eloc float64
	veff := make([]float64, g.NDTot)
	for i := range veff {
		veff[i] = vloc[i] + vh[i] + vxc[i]
		eloc += vloc[i] * rho[i]
	}
	eloc *= g.DV()
	return veff, Energies{Hartree: eh, XC: exc, Local: eloc}
}

// RestrictToWave Fourier-truncates a dense-grid real potential onto the
// wavefunction grid, where it is applied point-wise to orbitals.
func RestrictToWave(g *grid.Grid, dense []float64) []float64 {
	src := lanes.New(g.NDTot)
	copy(src.Re, dense)
	dst := lanes.New(g.NTot)
	g.RestrictDenseToWave(dst, src)
	return dst.Re
}

// IntegrateDensity returns the total electron count of a dense-grid density.
func IntegrateDensity(g *grid.Grid, rho []float64) float64 {
	var s float64
	for _, r := range rho {
		s += r
	}
	return s * g.DV()
}

// DensityDiff returns the L1 density difference per electron,
// norm = integral |rho1 - rho2| dr / Nelec, the SCF convergence monitor of
// section 4 (stopping criterion 1e-6).
func DensityDiff(g *grid.Grid, rho1, rho2 []float64, nelec float64) float64 {
	var s float64
	for i := range rho1 {
		s += math.Abs(rho1[i] - rho2[i])
	}
	return s * g.DV() / nelec
}
