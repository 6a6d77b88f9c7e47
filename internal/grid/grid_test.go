package grid

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ptdft/internal/fourier"
	"ptdft/internal/lanes"
	"ptdft/internal/lattice"
)

func si8Grid(t *testing.T, ecut float64) *Grid {
	t.Helper()
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	g, err := New(cell, ecut)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPaperGridDimensions(t *testing.T) {
	// Section 4: Si1536 = 4x6x8 unit cells, Ecut = 10 Ha gives a
	// wavefunction grid of 60x90x120 (NG = 648,000 reported as the box
	// size) and a charge density grid of 120x180x240.
	cell := lattice.MustSiliconSupercell(4, 6, 8)
	g, err := New(cell, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != [3]int{60, 90, 120} {
		t.Errorf("wavefunction grid = %v, paper reports 60x90x120", g.N)
	}
	if g.ND != [3]int{120, 180, 240} {
		t.Errorf("density grid = %v, paper reports 120x180x240", g.ND)
	}
	if g.NTot != 648000 {
		t.Errorf("NTot = %d, paper reports 648000", g.NTot)
	}
	if cell.NumAtoms() != 1536 {
		t.Errorf("atoms = %d, want 1536", cell.NumAtoms())
	}
	if cell.NumBands() != 3072 {
		t.Errorf("bands = %d, paper reports 3072 occupied wavefunctions", cell.NumBands())
	}
}

func TestSphereWithinCutoff(t *testing.T) {
	g := si8Grid(t, 5)
	if g.NG == 0 {
		t.Fatal("empty G sphere")
	}
	for i, g2 := range g.G2 {
		if g2/2 > g.Ecut+1e-12 {
			t.Fatalf("sphere entry %d above cutoff: %g", i, g2/2)
		}
	}
	// G=0 must be present.
	found := false
	for _, g2 := range g.G2 {
		if g2 == 0 {
			found = true
		}
	}
	if !found {
		t.Error("G=0 not in sphere")
	}
}

func TestSphereClosedUnderNegation(t *testing.T) {
	g := si8Grid(t, 5)
	type key [3]int
	set := make(map[key]bool, g.NG)
	for _, m := range g.MillerIdx {
		set[key{m[0], m[1], m[2]}] = true
	}
	for _, m := range g.MillerIdx {
		if !set[key{-m[0], -m[1], -m[2]}] {
			t.Fatalf("sphere not symmetric: missing -G for %v", m)
		}
	}
}

func TestToRealFromRealRoundTrip(t *testing.T) {
	g := si8Grid(t, 4)
	rng := rand.New(rand.NewSource(1))
	c := make([]complex128, g.NG)
	for i := range c {
		c[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	ws := g.Plan.NewWorkspace()
	box := lanes.New(g.NTot)
	g.ToRealSlabWS(box, c, ws)
	c2 := make([]complex128, g.NG)
	g.FromRealSlabWS(c2, box, ws)
	for i := range c {
		if cmplx.Abs(c[i]-c2[i]) > 1e-10 {
			t.Fatalf("round trip differs at %d: %v vs %v", i, c[i], c2[i])
		}
	}
}

func TestNormalizationParseval(t *testing.T) {
	// A normalized sphere vector must integrate |psi|^2 to 1 on both boxes.
	g := si8Grid(t, 4)
	rng := rand.New(rand.NewSource(3))
	c := make([]complex128, g.NG)
	var norm float64
	for i := range c {
		c[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(c[i])*real(c[i]) + imag(c[i])*imag(c[i])
	}
	s := complex(1/math.Sqrt(norm), 0)
	for i := range c {
		c[i] *= s
	}
	box := lanes.New(g.NTot)
	g.ToRealSlabWS(box, c, g.Plan.NewWorkspace())
	if integral := lanes.DotRe(box, box) * g.DVWave(); math.Abs(integral-1) > 1e-10 {
		t.Errorf("wave box norm integral = %g, want 1", integral)
	}
	boxD := lanes.New(g.NDTot)
	g.ToRealDenseSlabWS(boxD, c, g.PlanD.NewWorkspace())
	if integral := lanes.DotRe(boxD, boxD) * g.DV(); math.Abs(integral-1) > 1e-10 {
		t.Errorf("dense box norm integral = %g, want 1", integral)
	}
}

func TestDenseForwardInverseRoundTrip(t *testing.T) {
	g := si8Grid(t, 3)
	rng := rand.New(rand.NewSource(4))
	f := lanes.New(g.NDTot)
	for i := range f.Re {
		f.Re[i] = rng.NormFloat64()
	}
	coeff := lanes.New(g.NDTot)
	g.DenseForward(coeff, f)
	back := lanes.New(g.NDTot)
	g.DenseInverse(back, coeff)
	for i := range f.Re {
		if math.Abs(f.Re[i]-back.Re[i]) > 1e-10 || math.Abs(back.Im[i]) > 1e-10 {
			t.Fatalf("dense round trip differs at %d", i)
		}
	}
}

func TestDenseForwardConstantField(t *testing.T) {
	g := si8Grid(t, 3)
	f := lanes.New(g.NDTot)
	for i := range f.Re {
		f.Re[i] = 2.5
	}
	coeff := lanes.New(g.NDTot)
	g.DenseForward(coeff, f)
	// Only the G=0 coefficient (linear index 0) should be nonzero.
	if cmplx.Abs(complex(coeff.Re[0], coeff.Im[0])-2.5) > 1e-10 {
		t.Errorf("G=0 coefficient = %v, want 2.5", complex(coeff.Re[0], coeff.Im[0]))
	}
	for i := 1; i < coeff.Len(); i++ {
		if v := complex(coeff.Re[i], coeff.Im[i]); cmplx.Abs(v) > 1e-10 {
			t.Fatalf("nonzero coefficient at %d: %v", i, v)
		}
	}
}

func TestRestrictDenseToWavePlaneWave(t *testing.T) {
	// A single low-G plane wave on the dense grid must restrict to the same
	// plane wave sampled on the wavefunction grid.
	g := si8Grid(t, 4)
	m := [3]int{1, -2, 1}
	b := [3]float64{2 * math.Pi / g.Cell.L[0], 2 * math.Pi / g.Cell.L[1], 2 * math.Pi / g.Cell.L[2]}
	gv := [3]float64{float64(m[0]) * b[0], float64(m[1]) * b[1], float64(m[2]) * b[2]}
	dense := lanes.New(g.NDTot)
	idx := 0
	for ix := 0; ix < g.ND[0]; ix++ {
		x := float64(ix) / float64(g.ND[0]) * g.Cell.L[0]
		for iy := 0; iy < g.ND[1]; iy++ {
			y := float64(iy) / float64(g.ND[1]) * g.Cell.L[1]
			for iz := 0; iz < g.ND[2]; iz++ {
				z := float64(iz) / float64(g.ND[2]) * g.Cell.L[2]
				ph := gv[0]*x + gv[1]*y + gv[2]*z
				dense.Im[idx], dense.Re[idx] = math.Sincos(ph)
				idx++
			}
		}
	}
	wave := lanes.New(g.NTot)
	g.RestrictDenseToWave(wave, dense)
	idx = 0
	for ix := 0; ix < g.N[0]; ix++ {
		x := float64(ix) / float64(g.N[0]) * g.Cell.L[0]
		for iy := 0; iy < g.N[1]; iy++ {
			y := float64(iy) / float64(g.N[1]) * g.Cell.L[1]
			for iz := 0; iz < g.N[2]; iz++ {
				z := float64(iz) / float64(g.N[2]) * g.Cell.L[2]
				ph := gv[0]*x + gv[1]*y + gv[2]*z
				want := cmplx.Exp(complex(0, ph))
				if got := complex(wave.Re[idx], wave.Im[idx]); cmplx.Abs(got-want) > 1e-9 {
					t.Fatalf("restriction differs at %d: got %v want %v", idx, got, want)
				}
				idx++
			}
		}
	}
}

func TestWavePointPositions(t *testing.T) {
	g := si8Grid(t, 3)
	pos := g.WavePointPositions()
	if len(pos) != g.NTot {
		t.Fatalf("positions length %d, want %d", len(pos), g.NTot)
	}
	// First point is the origin; all points inside the cell.
	if pos[0] != [3]float64{0, 0, 0} {
		t.Errorf("first position %v, want origin", pos[0])
	}
	for _, p := range pos {
		for d := 0; d < 3; d++ {
			if p[d] < 0 || p[d] >= g.Cell.L[d] {
				t.Fatalf("position %v outside cell", p)
			}
		}
	}
}

func TestMillerIndexMapping(t *testing.T) {
	for _, n := range []int{5, 6, 8, 9} {
		for k := 0; k < n; k++ {
			m := millerFromIndex(k, n)
			if indexFromMiller(m, n) != k {
				t.Fatalf("miller mapping not invertible: n=%d k=%d m=%d", n, k, m)
			}
		}
	}
}

func TestNewRejectsBadCutoff(t *testing.T) {
	cell := lattice.MustSiliconSupercell(1, 1, 1)
	if _, err := New(cell, 0); err == nil {
		t.Error("expected error for zero cutoff")
	}
	if _, err := New(cell, -1); err == nil {
		t.Error("expected error for negative cutoff")
	}
}

// The sphere transforms run their z and y passes only on the rows and
// planes that hold sphere points. Every lane of a pass is transformed on
// its own and skipped rows are zero, so ToRealSlabWS, ToRealDenseSlabWS and
// FromRealSlabWS must equal the unpruned path - scatter plus the full
// RawSlabWS, full forward RawSlabWS plus gather - bit for bit, on the Si8
// box and on a {1,1,2} box whose row counts are not multiples of
// lanes.Width; and they must allocate nothing with caller-owned scratch.
func TestSphereTransformsMatchUnpruned(t *testing.T) {
	for _, cells := range [][3]int{{1, 1, 1}, {1, 1, 2}} {
		g := MustNew(lattice.MustSiliconSupercell(cells[0], cells[1], cells[2]), 3)
		rng := rand.New(rand.NewSource(int64(7 + cells[2])))
		c := make([]complex128, g.NG)
		for i := range c {
			c[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for _, b := range []struct {
			name string
			n    [3]int
			idx  []int
			sup  fourier.Support
			plan *fourier.Plan3
			synt func(lanes.Slab, []complex128, *fourier.Workspace3)
		}{
			{"wave", g.N, g.SphereIdx, g.sup, g.Plan, g.ToRealSlabWS},
			{"dense", g.ND, g.SphereIdxD, g.supD, g.PlanD, g.ToRealDenseSlabWS},
		} {
			checkSupport(t, b.name, b.idx, b.n, b.sup)
			if b.name == "dense" && len(b.sup.Rows) == b.n[0]*b.n[1] {
				t.Errorf("cells %v: dense support lists every row; nothing is pruned", cells)
			}
			ws := b.plan.NewWorkspace()
			got, want := lanes.New(b.plan.Size()), lanes.New(b.plan.Size())
			b.synt(got, c, ws)
			scale := 1 / math.Sqrt(g.Volume())
			for s, k := range b.idx {
				want.Re[k] = real(c[s]) * scale
				want.Im[k] = imag(c[s]) * scale
			}
			b.plan.RawSlabWS(want, want, true, ws)
			for i := range want.Re {
				if !sameBits(got.Re[i], want.Re[i]) || !sameBits(got.Im[i], want.Im[i]) {
					t.Fatalf("cells %v %s box: pruned synthesis differs at %d: %v%+vi vs %v%+vi",
						cells, b.name, i, got.Re[i], got.Im[i], want.Re[i], want.Im[i])
				}
			}
			if a := testing.AllocsPerRun(5, func() { b.synt(got, c, ws) }); a > 0 {
				t.Errorf("cells %v %s box: synthesis allocates %v per run", cells, b.name, a)
			}
		}

		ws := g.Plan.NewWorkspace()
		box := lanes.New(g.NTot)
		for i := range box.Re {
			box.Re[i], box.Im[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		full := lanes.New(g.NTot)
		g.Plan.RawSlabWS(full, box, false, ws)
		scale := math.Sqrt(g.Volume()) / float64(g.NTot)
		got := make([]complex128, g.NG)
		g.FromRealSlabWS(got, box, ws)
		for s, k := range g.SphereIdx {
			if re, im := full.Re[k]*scale, full.Im[k]*scale; !sameBits(real(got[s]), re) || !sameBits(imag(got[s]), im) {
				t.Fatalf("cells %v: pruned analysis differs at sphere entry %d: %v vs %v", cells, s, got[s], complex(re, im))
			}
		}
		if a := testing.AllocsPerRun(5, func() { g.FromRealSlabWS(got, box, ws) }); a > 0 {
			t.Errorf("cells %v: FromRealSlabWS allocates %v per run", cells, a)
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkSupport pins a support list against its definition: the ascending,
// duplicate-free rows and planes that hold at least one point of idx.
func checkSupport(t *testing.T, name string, idx []int, n [3]int, sup fourier.Support) {
	t.Helper()
	rows := map[int]bool{}
	planes := map[int]bool{}
	for _, k := range idx {
		rows[k/n[2]] = true
		planes[k/(n[1]*n[2])] = true
	}
	for _, c := range []struct {
		what string
		got  []int
		want map[int]bool
	}{{"rows", sup.Rows, rows}, {"planes", sup.Planes, planes}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s box: %d support %s, want %d", name, len(c.got), c.what, len(c.want))
		}
		for i, v := range c.got {
			if !c.want[v] || (i > 0 && c.got[i-1] >= v) {
				t.Errorf("%s box: support %s %v not the ascending set of occupied %s", name, c.what, c.got, c.what)
				break
			}
		}
	}
}
