// Package fourier implements the complex discrete Fourier transforms of the
// plane-wave machinery: mixed-radix Cooley-Tukey for sizes whose prime
// factors are at most 61 and a Bluestein chirp-z fallback for everything
// else. There is one transform engine. Every 1D transform runs over a lane
// block of lanes.Width pencils (fftlanes.go), and every 3D grid transform
// is a sequence of lane-blocked axis passes over a lanes.Slab (slab.go):
// the raw transform, the fused Poisson round trip and the fused exchange
// contractions. It is the CUFFT stand-in of the reproduction: the Fock
// exchange operator performs all of its N^2 Poisson-like solves, and the
// density and potentials all of their grid transforms, through these
// passes.
//
// Butterflies: radix 2, 3 and 4 have their own combines and other primes
// up to maxDirectRadix an O(r^2) generic one. Radix 3 runs in closed form
// (X0 = a+s, X1,2 = a - s/2 ± i*sqrt(3)/2*d with s = x+y, d = x-y) and
// radix 4 rotates by ∓i with a swap and a sign, so neither multiplies by
// tabulated roots. Two rules cut the rest: the k = 0 column and the q = 0
// row of every twiddle table are exactly 1, so those multiplies are
// skipped; and the last recursion level (m = 1) copies its r leaves inline
// instead of recursing once per leaf.
//
// Pruning: a transform with one end on a cutoff sphere (PrunedSlabWS, the
// grid package's sphere <-> box transforms) runs its z pass only on the
// rows and its y pass only on the x planes listed in a Support, the rows
// and planes that hold sphere points. The passes it skips would transform
// all-zero pencils (to zero) or produce pencils nobody reads, and the
// lanes of a pass never mix, so the result equals the full transform bit
// for bit.
//
// Conventions: the forward transform computes X[k] = sum_j x[j]
// exp(-2*pi*i*j*k/N); the inverse uses exp(+2*pi*i*j*k/N). Both are
// unnormalized - callers fold the 1/N into their own pointwise scaling.
//
// Memory discipline: all per-transform scratch lives in Workspace3 objects
// that callers hold (one per worker) or draw from the plan's pool. NewPlan
// precomputes every twiddle table the butterfly passes read (one dense
// table per recursion level, so the hot loops index sequentially with no
// modular arithmetic); the steady-state transform performs zero heap
// allocations.
package fourier

import (
	"fmt"
	"math"

	"ptdft/internal/lanes"
)

// maxDirectRadix is the largest prime handled by the O(r^2) generic
// butterfly inside the mixed-radix recursion. Larger prime factors route the
// whole transform through Bluestein.
const maxDirectRadix = 61

// stage holds the precomputed combine tables for one level of the
// decimation-in-time recursion, in split re/im form (one scalar load per
// lane group): a length-n_l twiddle table indexed q*m+k (replacing the
// (q*k*step) mod N lookups of a table-free implementation) and the order-r
// roots of unity for the cross-output butterfly. F tables are the forward
// sign, I tables the inverse.
type stage struct {
	r, m                               int
	twFre, twFim, twIre, twIim         []float64 // tw[q*m+k] = exp(∓2*pi*i*q*k*step/N), len r*m
	rootFre, rootFim, rootIre, rootIim []float64 // root[q] = exp(∓2*pi*i*q/r), len r
}

// Plan holds precomputed twiddle tables for a 1D transform of fixed length.
// A Plan is immutable after creation and safe for concurrent use; scratch
// needed by the Bluestein fallback is passed explicitly as a Workspace.
type Plan struct {
	n       int
	factors []int   // prime factorization of n, ascending (4s merged)
	stages  []stage // one entry per recursion level, top level first
	blu     *bluestein
}

// Workspace is the per-call scratch of one 1D lane-block transform. Only
// plans that fall back to Bluestein need backing storage; mixed-radix plans
// carry a zero-cost empty workspace. A Workspace must not be shared between
// concurrent transforms.
type Workspace struct {
	la, lfa lanes.Slab // Bluestein convolution lane blocks, length blu.m*lanes.Width
}

// NewWorkspace allocates the scratch one transform of this plan needs.
func (p *Plan) NewWorkspace() *Workspace {
	ws := &Workspace{}
	if p.blu != nil {
		ws.la = lanes.New(p.blu.m * lanes.Width)
		ws.lfa = lanes.New(p.blu.m * lanes.Width)
	}
	return ws
}

// NewPlan creates a transform plan for length n >= 1. All setup work -
// factorization, per-level twiddle tables, Bluestein kernels - happens
// here; the transform itself reads precomputed tables only.
func NewPlan(n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("fourier: transform length %d < 1", n)
	}
	p := &Plan{n: n, factors: mergeRadix4(factorize(n))}
	if len(p.factors) > 0 && p.factors[len(p.factors)-1] > maxDirectRadix {
		b, err := newBluestein(n)
		if err != nil {
			return nil, err
		}
		p.blu = b
	} else {
		p.buildStages()
	}
	return p, nil
}

// buildStages tabulates the combine twiddles for every recursion level.
// Level l transforms length n_l = n / prod(r_0..r_{l-1}), splitting off
// r_l = the largest remaining factor; its table tw[q*m+k] equals the
// global twiddle exp(-2*pi*i*q*k*step/N) with step = N/n_l.
func (p *Plan) buildStages() {
	n := p.n
	rem := append([]int(nil), p.factors...)
	nl := n
	for len(rem) > 0 {
		r := rem[len(rem)-1]
		rem = rem[:len(rem)-1]
		m := nl / r
		st := stage{r: r, m: m}
		st.twFre, st.twFim, st.twIre, st.twIim = make([]float64, nl), make([]float64, nl), make([]float64, nl), make([]float64, nl)
		st.rootFre, st.rootFim, st.rootIre, st.rootIim = make([]float64, r), make([]float64, r), make([]float64, r), make([]float64, r)
		step := n / nl
		for q := 0; q < r; q++ {
			for k := 0; k < m; k++ {
				e := (q * k * step) % n
				s, c := math.Sincos(-2 * math.Pi * float64(e) / float64(n))
				st.twFre[q*m+k], st.twFim[q*m+k] = c, s
				st.twIre[q*m+k], st.twIim[q*m+k] = c, -s
			}
			s, c := math.Sincos(-2 * math.Pi * float64(q) / float64(r))
			st.rootFre[q], st.rootFim[q] = c, s
			st.rootIre[q], st.rootIim[q] = c, -s
		}
		p.stages = append(p.stages, st)
		nl = m
	}
}

// MustPlan is NewPlan that panics on error; for use with known-good sizes.
func MustPlan(n int) *Plan {
	p, err := NewPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Len reports the transform length.
func (p *Plan) Len() int { return p.n }

// mergeRadix4 rewrites pairs of 2s as radix-4 passes, which have a cheaper
// butterfly, keeping the list sorted ascending.
func mergeRadix4(f []int) []int {
	twos := 0
	rest := f[:0]
	for _, v := range f {
		if v == 2 {
			twos++
		} else {
			rest = append(rest, v)
		}
	}
	out := make([]int, 0, len(f))
	if twos%2 == 1 {
		out = append(out, 2)
	}
	for i := 0; i < twos/2; i++ {
		out = append(out, 4)
	}
	out = append(out, rest...)
	// rest was already ascending and >= 3; a single insertion pass keeps
	// the merged list sorted.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// factorize returns the ascending prime factorization of n >= 1.
func factorize(n int) []int {
	var f []int
	for d := 2; d*d <= n; d++ {
		for n%d == 0 {
			f = append(f, d)
			n /= d
		}
	}
	if n > 1 {
		f = append(f, n)
	}
	return f
}

// IsFast reports whether n factors entirely into primes <= 7, the sizes for
// which the mixed-radix path is most efficient.
func IsFast(n int) bool {
	if n < 1 {
		return false
	}
	for _, d := range []int{2, 3, 5, 7} {
		for n%d == 0 {
			n /= d
		}
	}
	return n == 1
}

// NextFast returns the smallest m >= n with prime factors <= 7.
func NextFast(n int) int {
	if n < 1 {
		return 1
	}
	for !IsFast(n) {
		n++
	}
	return n
}

// bluestein implements the chirp-z transform for arbitrary lengths via a
// power-of-two convolution. Its two convolution lane blocks live in the
// caller's Workspace, so repeated transforms allocate nothing. All tables
// are split re/im: F is the forward sign, I (chirp) and B (kernel) the
// inverse.
type bluestein struct {
	n     int
	m     int // power-of-two convolution length >= 2n-1
	inner *Plan
	// chirp is the pre/post multiplier exp(∓i*pi*j^2/n).
	chirpFre, chirpFim, chirpIre, chirpIim []float64
	// kernel is the precomputed forward FFT of the padded conjugate-chirp
	// sequence.
	kernelFre, kernelFim, kernelBre, kernelBim []float64
}

func newBluestein(n int) (*bluestein, error) {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	inner, err := NewPlan(m)
	if err != nil {
		return nil, err
	}
	b := &bluestein{n: n, m: m, inner: inner}
	b.chirpFre, b.chirpFim = make([]float64, n), make([]float64, n)
	b.chirpIre, b.chirpIim = make([]float64, n), make([]float64, n)
	for j := 0; j < n; j++ {
		// j^2 mod 2n keeps the argument bounded for large n.
		e := float64((j * j) % (2 * n))
		s, c := math.Sincos(-math.Pi * e / float64(n))
		b.chirpFre[j], b.chirpFim[j] = c, s
		b.chirpIre[j], b.chirpIim[j] = c, -s
	}
	// The convolution kernel of a transform is the conjugate of its chirp,
	// wrapped symmetrically into the length-m buffer and transformed once
	// through lane 0 of a lane block.
	mk := func(cre, cim []float64) (re, im []float64) {
		seq, out := lanes.New(m*lw), lanes.New(m*lw)
		for j := 0; j < n; j++ {
			seq.Re[j*lw], seq.Im[j*lw] = cre[j], -cim[j]
			if j > 0 {
				seq.Re[(m-j)*lw], seq.Im[(m-j)*lw] = cre[j], -cim[j]
			}
		}
		inner.transformLanes(out, seq, false, nil)
		re, im = make([]float64, m), make([]float64, m)
		for i := range re {
			re[i], im[i] = out.Re[i*lw], out.Im[i*lw]
		}
		return re, im
	}
	b.kernelFre, b.kernelFim = mk(b.chirpFre, b.chirpFim)
	b.kernelBre, b.kernelBim = mk(b.chirpIre, b.chirpIim)
	return b, nil
}
