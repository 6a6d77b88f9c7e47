package xc

import (
	"math"
	"testing"
)

func TestScreenedKernelLimits(t *testing.T) {
	h := HSE06()
	// G -> 0 limit is pi/omega^2 (finite - the property that makes the
	// screened hybrid Gamma-point safe).
	want := math.Pi / (h.Omega * h.Omega)
	if got := h.ScreenedKernel(0); math.Abs(got-want) > 1e-6*want {
		t.Errorf("K(0) = %g, want %g", got, want)
	}
	// Large G: approaches bare Coulomb 4*pi/G^2.
	g2 := 100.0
	if got, wantC := h.ScreenedKernel(g2), 4*math.Pi/g2; math.Abs(got-wantC) > 1e-6*wantC {
		t.Errorf("K(large G) = %g, want %g", got, wantC)
	}
	// Monotone decreasing and positive.
	prev := h.ScreenedKernel(0)
	for g2 := 0.01; g2 < 50; g2 += 0.01 {
		v := h.ScreenedKernel(g2)
		if v <= 0 {
			t.Fatalf("kernel non-positive at g2=%g", g2)
		}
		if v > prev+1e-12 {
			t.Fatalf("kernel not monotone at g2=%g", g2)
		}
		prev = v
	}
}

func TestScreenedKernelSeriesBranchContinuity(t *testing.T) {
	h := HSE06()
	// The small-x series branch must join the general expression smoothly.
	x := 1e-8 * 4 * h.Omega * h.Omega
	a := h.ScreenedKernel(x * 0.999)
	b := h.ScreenedKernel(x * 1.001)
	if math.Abs(a-b) > 1e-6*a {
		t.Errorf("kernel discontinuous across series branch: %g vs %g", a, b)
	}
}

func TestUnscreenedKernel(t *testing.T) {
	h := HybridParams{Alpha: 1, Omega: 0}
	if h.ScreenedKernel(0) != 0 {
		t.Error("unscreened kernel at G=0 should be regularized to 0")
	}
	if got, want := h.ScreenedKernel(4.0), math.Pi; math.Abs(got-want) > 1e-12 {
		t.Errorf("unscreened K(4) = %g, want pi", got)
	}
}

func TestLDASignsAndScaling(t *testing.T) {
	for _, rho := range []float64{1e-6, 0.01, 0.1, 1, 10} {
		eps, v := LDA(rho, 1)
		if eps >= 0 || v >= 0 {
			t.Errorf("rho=%g: LDA eps=%g v=%g, want negative", rho, eps, v)
		}
	}
	// Zero density is safe.
	if eps, v := LDA(0, 1); eps != 0 || v != 0 {
		t.Error("LDA at zero density should vanish")
	}
}

func TestLDAExchangeAttenuation(t *testing.T) {
	rho := 0.5
	e1, v1 := LDA(rho, 1)
	e75, v75 := LDA(rho, 0.75)
	// Attenuating exchange makes both less negative, by exactly a quarter
	// of the Slater exchange part.
	cx := -0.75 * math.Pow(3/math.Pi, 1.0/3)
	dex := 0.25 * cx * math.Pow(rho, 1.0/3)
	if math.Abs((e1-e75)-dex) > 1e-12 {
		t.Errorf("exchange attenuation wrong in eps: %g vs %g", e1-e75, dex)
	}
	dvx := 0.25 * 4.0 / 3.0 * cx * math.Pow(rho, 1.0/3)
	if math.Abs((v1-v75)-dvx) > 1e-12 {
		t.Errorf("exchange attenuation wrong in v: %g vs %g", v1-v75, dvx)
	}
}

func TestLDACorrelationContinuityAtRs1(t *testing.T) {
	// The published PZ81 parametrization has a known tiny mismatch at the
	// rs = 1 branch point (a few 1e-5 Ha); verify it stays at that level.
	// rs = 1 corresponds to rho = 3/(4 pi).
	rho := 3 / (4 * math.Pi)
	e1, _ := LDA(rho*(1+1e-9), 1)
	e2, _ := LDA(rho*(1-1e-9), 1)
	if math.Abs(e1-e2) > 1e-4 {
		t.Errorf("PZ correlation discontinuous at rs=1 beyond the known mismatch: %g vs %g", e1, e2)
	}
}

func TestHSE06Parameters(t *testing.T) {
	h := HSE06()
	if h.Alpha != 0.25 {
		t.Errorf("alpha = %g, want 0.25", h.Alpha)
	}
	if math.Abs(h.Omega-0.106) > 1e-12 {
		t.Errorf("omega = %g, want 0.106", h.Omega)
	}
}

// ldaPow is the math.Pow form of LDA that the cube-root form replaced,
// kept as its oracle.
func ldaPow(rho, exScale float64) (eps, v float64) {
	if rho <= 1e-14 {
		return 0, 0
	}
	cx := -0.75 * math.Pow(3/math.Pi, 1.0/3)
	rho13 := math.Pow(rho, 1.0/3)
	ex := cx * rho13 * exScale
	vx := 4.0 / 3.0 * cx * rho13 * exScale
	rs := math.Pow(3/(4*math.Pi*rho), 1.0/3)
	var ec, vc float64
	if rs < 1 {
		const a, b, c, d = 0.0311, -0.048, 0.0020, -0.0116
		ln := math.Log(rs)
		ec = a*ln + b + c*rs*ln + d*rs
		vc = a*ln + (b - a/3) + 2.0/3.0*c*rs*ln + (2*d-c)/3*rs
	} else {
		const gamma, beta1, beta2 = -0.1423, 1.0529, 0.3334
		sq := math.Sqrt(rs)
		den := 1 + beta1*sq + beta2*rs
		ec = gamma / den
		vc = ec * (1 + 7.0/6.0*beta1*sq + 4.0/3.0*beta2*rs) / den
	}
	return ex + ec, vx + vc
}

// On a log sweep of rho over 13 decades, both branches of PZ81 and the
// hybrid's attenuated exchange, LDA matches the math.Pow form to 1e-14
// relative.
func TestLDAMatchesPowForm(t *testing.T) {
	const tol = 1e-14
	for _, exScale := range []float64{1, 0.75} {
		for i := 0; i <= 1300; i++ {
			rho := math.Pow(10, -12+float64(i)/100)
			eps, v := LDA(rho, exScale)
			wantEps, wantV := ldaPow(rho, exScale)
			if d := math.Abs(eps-wantEps) / math.Abs(wantEps); d > tol {
				t.Errorf("rho=%g exScale=%g: eps %.17g vs %.17g (rel %.2g)", rho, exScale, eps, wantEps, d)
			}
			if d := math.Abs(v-wantV) / math.Abs(wantV); d > tol {
				t.Errorf("rho=%g exScale=%g: v %.17g vs %.17g (rel %.2g)", rho, exScale, v, wantV, d)
			}
		}
	}
}
