// Package grid builds the plane-wave discretization: the wavefunction
// G-sphere (all G with |G|^2/2 <= Ecut), its containing FFT box, and the
// twice-denser charge-density box, together with scatter/gather maps and
// normalization-aware transforms between G-space coefficients and real
// space. With the paper's parameters (Ecut = 10 Ha, 4 x 6 x 8 silicon
// supercell) it reproduces the paper's 60 x 90 x 120 wavefunction grid and
// 120 x 180 x 240 density grid exactly.
//
// Conventions: psi(r) = (1/sqrt(Omega)) * sum_G c_G exp(i G.r) with the
// sphere coefficients c_G stored contiguously; densities and potentials are
// real-space arrays on the dense box with Fourier coefficients f_G such that
// f(r) = sum_G f_G exp(i G.r).
package grid

import (
	"fmt"
	"math"

	"ptdft/internal/fourier"
	"ptdft/internal/lanes"
	"ptdft/internal/lattice"
)

// Grid holds the discretization for one cell and cutoff.
type Grid struct {
	Cell *lattice.Cell
	Ecut float64 // wavefunction kinetic energy cutoff, Hartree

	// Wavefunction box.
	N    [3]int // FFT dims
	NTot int
	Plan *fourier.Plan3

	// Dense (charge density) box, double the linear resolution.
	ND    [3]int
	NDTot int
	PlanD *fourier.Plan3

	// G-sphere: indices into the wavefunction box and the dense box, plus
	// the G vectors and |G|^2 per sphere entry.
	NG         int
	SphereIdx  []int
	SphereIdxD []int
	GVec       [][3]float64
	G2         []float64
	MillerIdx  [][3]int
	// G2Dense holds |G|^2 for every dense-box point (Hartree kernel).
	G2Dense []float64
	// GVecDense holds the G vector for every dense-box point.
	GVecDense [][3]float64

	// sup and supD are the z rows and x planes of the wavefunction and
	// dense boxes that hold sphere points: the only ones the sphere
	// transforms run their z and y passes on.
	sup, supD fourier.Support
}

// New builds the grids for the given cell and wavefunction cutoff (Ha).
func New(cell *lattice.Cell, ecut float64) (*Grid, error) {
	if ecut <= 0 {
		return nil, fmt.Errorf("grid: non-positive cutoff %g", ecut)
	}
	g := &Grid{Cell: cell, Ecut: ecut}
	gmax := math.Sqrt(2 * ecut)
	for d := 0; d < 3; d++ {
		b := 2 * math.Pi / cell.L[d]
		mmax := int(gmax / b)
		g.N[d] = fourier.NextFast(2*mmax + 1)
		g.ND[d] = fourier.NextFast(4*mmax + 1)
		// Keep the dense box an even refinement when possible so that
		// restriction/prolongation stay exact.
		if g.ND[d] < 2*g.N[d] {
			g.ND[d] = fourier.NextFast(2 * g.N[d])
		}
	}
	g.NTot = g.N[0] * g.N[1] * g.N[2]
	g.NDTot = g.ND[0] * g.ND[1] * g.ND[2]
	var err error
	if g.Plan, err = fourier.NewPlan3(g.N[0], g.N[1], g.N[2]); err != nil {
		return nil, err
	}
	if g.PlanD, err = fourier.NewPlan3(g.ND[0], g.ND[1], g.ND[2]); err != nil {
		return nil, err
	}
	g.buildSphere()
	g.buildDenseG()
	return g, nil
}

// MustNew is New that panics on error.
func MustNew(cell *lattice.Cell, ecut float64) *Grid {
	g, err := New(cell, ecut)
	if err != nil {
		panic(err)
	}
	return g
}

// millerFromIndex maps FFT index k in [0,n) to the signed Miller index.
func millerFromIndex(k, n int) int {
	if k <= n/2 {
		return k
	}
	return k - n
}

// indexFromMiller maps a signed Miller index to the FFT index in [0,n).
func indexFromMiller(m, n int) int {
	if m < 0 {
		return m + n
	}
	return m
}

func (g *Grid) buildSphere() {
	b := [3]float64{
		2 * math.Pi / g.Cell.L[0],
		2 * math.Pi / g.Cell.L[1],
		2 * math.Pi / g.Cell.L[2],
	}
	// The support lists of both boxes share one allocation sized for every
	// row and plane of the wave box: the Miller-index map into the dense
	// box is one-to-one, so it has as many occupied rows and planes.
	nr, np := g.N[0]*g.N[1], g.N[0]
	buf := make([]int, 2*(nr+np))
	g.sup = fourier.Support{Rows: buf[:0:nr], Planes: buf[nr : nr : nr+np]}
	buf = buf[nr+np:]
	g.supD = fourier.Support{Rows: buf[:0:nr], Planes: buf[nr : nr : nr+np]}
	for ix := 0; ix < g.N[0]; ix++ {
		mx := millerFromIndex(ix, g.N[0])
		gx := float64(mx) * b[0]
		for iy := 0; iy < g.N[1]; iy++ {
			my := millerFromIndex(iy, g.N[1])
			gy := float64(my) * b[1]
			for iz := 0; iz < g.N[2]; iz++ {
				mz := millerFromIndex(iz, g.N[2])
				gz := float64(mz) * b[2]
				g2 := gx*gx + gy*gy + gz*gz
				if g2/2 > g.Ecut {
					continue
				}
				g.SphereIdx = append(g.SphereIdx, (ix*g.N[1]+iy)*g.N[2]+iz)
				dx := indexFromMiller(mx, g.ND[0])
				dy := indexFromMiller(my, g.ND[1])
				dz := indexFromMiller(mz, g.ND[2])
				g.SphereIdxD = append(g.SphereIdxD, (dx*g.ND[1]+dy)*g.ND[2]+dz)
				g.GVec = append(g.GVec, [3]float64{gx, gy, gz})
				g.G2 = append(g.G2, g2)
				g.MillerIdx = append(g.MillerIdx, [3]int{mx, my, mz})
				// List a row or plane the first time one of its points
				// is met. ix and iy ascend, and the dense index of a
				// Miller index increases with the wave index, so every
				// list comes out ascending with no sort.
				if n := len(g.sup.Rows); n == 0 || g.sup.Rows[n-1] != ix*g.N[1]+iy {
					g.sup.Rows = append(g.sup.Rows, ix*g.N[1]+iy)
					g.supD.Rows = append(g.supD.Rows, dx*g.ND[1]+dy)
				}
				if n := len(g.sup.Planes); n == 0 || g.sup.Planes[n-1] != ix {
					g.sup.Planes = append(g.sup.Planes, ix)
					g.supD.Planes = append(g.supD.Planes, dx)
				}
			}
		}
	}
	g.NG = len(g.SphereIdx)
}

func (g *Grid) buildDenseG() {
	g.G2Dense = make([]float64, g.NDTot)
	g.GVecDense = make([][3]float64, g.NDTot)
	b := [3]float64{
		2 * math.Pi / g.Cell.L[0],
		2 * math.Pi / g.Cell.L[1],
		2 * math.Pi / g.Cell.L[2],
	}
	idx := 0
	for ix := 0; ix < g.ND[0]; ix++ {
		gx := float64(millerFromIndex(ix, g.ND[0])) * b[0]
		for iy := 0; iy < g.ND[1]; iy++ {
			gy := float64(millerFromIndex(iy, g.ND[1])) * b[1]
			for iz := 0; iz < g.ND[2]; iz++ {
				gz := float64(millerFromIndex(iz, g.ND[2])) * b[2]
				g.G2Dense[idx] = gx*gx + gy*gy + gz*gz
				g.GVecDense[idx] = [3]float64{gx, gy, gz}
				idx++
			}
		}
	}
}

// Volume returns the cell volume.
func (g *Grid) Volume() float64 { return g.Cell.Volume() }

// DV returns the real-space volume element of the dense grid.
func (g *Grid) DV() float64 { return g.Volume() / float64(g.NDTot) }

// DVWave returns the real-space volume element of the wavefunction grid.
func (g *Grid) DVWave() float64 { return g.Volume() / float64(g.NTot) }

// ToRealSlabWS transforms sphere coefficients c (length NG) to real-space
// values psi(r) on the wavefunction box (length NTot): psi =
// (1/sqrt(Omega)) * sum_G c_G exp(iG.r). box is overwritten. FFT scratch
// is the caller's (from Plan.NewWorkspace), so hot loops bind one
// workspace per worker and allocate nothing.
func (g *Grid) ToRealSlabWS(box lanes.Slab, c []complex128, ws *fourier.Workspace3) {
	if box.Len() != g.NTot {
		panic("grid: ToRealSlab buffer size mismatch")
	}
	g.synthesize(box, c, g.SphereIdx, g.sup, g.Plan, ws)
}

// ToRealDenseSlabWS is ToRealSlabWS onto the dense box (zero padding in G
// space), used when accumulating the charge density. ws comes from
// PlanD.NewWorkspace.
func (g *Grid) ToRealDenseSlabWS(box lanes.Slab, c []complex128, ws *fourier.Workspace3) {
	if box.Len() != g.NDTot {
		panic("grid: ToRealDenseSlab buffer size mismatch")
	}
	g.synthesize(box, c, g.SphereIdxD, g.supD, g.PlanD, ws)
}

// synthesize scatters the sphere coefficients into box at idx and runs the
// unnormalized exp(+iG.r) synthesis, with the z and y passes only on the
// rows and planes of sup (the rest of the box is zero). The 1/sqrt(Omega)
// normalization is folded into the scatter, so no full-box scaling pass is
// needed.
func (g *Grid) synthesize(box lanes.Slab, c []complex128, idx []int, sup fourier.Support, plan *fourier.Plan3, ws *fourier.Workspace3) {
	if len(c) != g.NG {
		panic("grid: sphere coefficient length mismatch")
	}
	box.Zero()
	scale := 1 / math.Sqrt(g.Volume())
	for s, k := range idx {
		box.Re[k] = real(c[s]) * scale
		box.Im[k] = imag(c[s]) * scale
	}
	plan.PrunedSlabWS(box, true, sup, ws)
}

// FromRealSlabWS projects real-space values on the wavefunction box back
// onto the sphere coefficients: c_G = (sqrt(Omega)/NTot) * FFT(psi)[G], the
// exact inverse of ToRealSlabWS. The y and z passes run only on the planes
// and rows that hold sphere points, and the normalization is applied only
// on the NG sphere entries during the gather. The box is consumed (left
// partly transformed).
func (g *Grid) FromRealSlabWS(c []complex128, box lanes.Slab, ws *fourier.Workspace3) {
	if box.Len() != g.NTot || len(c) != g.NG {
		panic("grid: FromRealSlab buffer size mismatch")
	}
	g.Plan.PrunedSlabWS(box, false, g.sup, ws)
	scale := math.Sqrt(g.Volume()) / float64(g.NTot)
	for s, k := range g.SphereIdx {
		c[s] = complex(box.Re[k]*scale, box.Im[k]*scale)
	}
}

// DenseForward computes the Fourier coefficients f_G of a real-space dense
// field: f_G = FFT(f)/NDTot, so that f(r) = sum_G f_G exp(iG.r). A real
// field is a slab with Im zero; dst may be src.
func (g *Grid) DenseForward(dst, src lanes.Slab) {
	g.denseRaw(dst, src, false)
	lanes.Scale(dst, 1/float64(g.NDTot))
}

// DenseInverse synthesizes a real-space dense field from Fourier
// coefficients: f(r) = sum_G f_G exp(iG.r), the raw inverse transform.
// dst may be src.
func (g *Grid) DenseInverse(dst, src lanes.Slab) { g.denseRaw(dst, src, true) }

// denseRaw runs one unnormalized dense-box transform with pooled scratch.
// Dense transforms are a handful per SCF iteration, so they run serially
// through the same slab passes as the band transforms.
func (g *Grid) denseRaw(dst, src lanes.Slab, inverse bool) {
	ws := g.PlanD.CheckoutWorkspace()
	g.PlanD.RawSlabWS(dst, src, inverse, ws)
	g.PlanD.ReturnWorkspace(ws)
}

// RestrictDenseToWave Fourier-interpolates a real-space field from the dense
// box onto the wavefunction box (truncation of high-G components). Used to
// apply the self-consistent potential, computed on the dense grid, to
// orbitals represented on the coarser wavefunction grid. srcDense is
// consumed (transformed in place).
func (g *Grid) RestrictDenseToWave(dst, srcDense lanes.Slab) {
	if dst.Len() != g.NTot || srcDense.Len() != g.NDTot {
		panic("grid: RestrictDenseToWave buffer size mismatch")
	}
	g.DenseForward(srcDense, srcDense)
	// Copy every coarse-box G from the dense box; every Miller index
	// representable on the coarse box exists on the (finer) dense box.
	for ix := 0; ix < g.N[0]; ix++ {
		dx := indexFromMiller(millerFromIndex(ix, g.N[0]), g.ND[0])
		for iy := 0; iy < g.N[1]; iy++ {
			dy := indexFromMiller(millerFromIndex(iy, g.N[1]), g.ND[1])
			for iz := 0; iz < g.N[2]; iz++ {
				dz := indexFromMiller(millerFromIndex(iz, g.N[2]), g.ND[2])
				k, kd := (ix*g.N[1]+iy)*g.N[2]+iz, (dx*g.ND[1]+dy)*g.ND[2]+dz
				dst.Re[k], dst.Im[k] = srcDense.Re[kd], srcDense.Im[kd]
			}
		}
	}
	// Synthesize on the wavefunction box.
	ws := g.Plan.CheckoutWorkspace()
	g.Plan.RawSlabWS(dst, dst, true, ws)
	g.Plan.ReturnWorkspace(ws)
}

// WavePointPositions returns the Cartesian coordinates of wavefunction-box
// grid points, in box linear-index order. Used by the real-space nonlocal
// projectors.
func (g *Grid) WavePointPositions() [][3]float64 {
	pos := make([][3]float64, g.NTot)
	idx := 0
	for ix := 0; ix < g.N[0]; ix++ {
		x := float64(ix) / float64(g.N[0]) * g.Cell.L[0]
		for iy := 0; iy < g.N[1]; iy++ {
			y := float64(iy) / float64(g.N[1]) * g.Cell.L[1]
			for iz := 0; iz < g.N[2]; iz++ {
				z := float64(iz) / float64(g.N[2]) * g.Cell.L[2]
				pos[idx] = [3]float64{x, y, z}
				idx++
			}
		}
	}
	return pos
}
