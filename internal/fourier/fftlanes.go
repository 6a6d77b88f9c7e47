package fourier

import "ptdft/internal/lanes"

// This file holds the 1D transform itself, in the lane-blocked SoA layout:
// the mixed-radix recursion and the Bluestein fallback operate on
// lanes.Width pencils at once. Data lives in a lane block - a Slab of
// length n*lanes.Width with element k of pencil l at offset k*Width+l - so
// each butterfly loads its twiddle once (uniform) and applies it to Width
// independent pencils (varying) in a fixed-width, bounds-check-free inner
// loop. One recursion walk and one twiddle stream serve Width pencils,
// amortizing the call overhead and table traffic of a per-pencil
// transform. A single pencil is a lane block with the other lanes zero.

const lw = lanes.Width

// copyLane copies one Width-wide row of a lane block. The unrolled
// assignment compiles to eight register moves; an array assignment
// through two pointers the compiler cannot prove disjoint becomes a
// runtime.memmove call, and a loop keeps its counter - both cost more than
// the 64 bytes moved.
func copyLane(dst, src *[lw]float64) {
	dst[0], dst[1], dst[2], dst[3], dst[4], dst[5], dst[6], dst[7] = src[0], src[1], src[2], src[3], src[4], src[5], src[6], src[7]
}

// copyLane is written for Width 8: this fails to compile otherwise.
var _ = [1]struct{}{}[lw-8]

// transformLanes runs one unnormalized transform over a lane block of
// lanes.Width pencils. dst and src are lane blocks of length n*Width and
// must not alias; plans with a Bluestein fallback require a workspace from
// NewWorkspace.
func (p *Plan) transformLanes(dst, src lanes.Slab, inverse bool, ws *Workspace) {
	if p.n == 1 {
		copyLane((*[lw]float64)(dst.Re), (*[lw]float64)(src.Re))
		copyLane((*[lw]float64)(dst.Im), (*[lw]float64)(src.Im))
		return
	}
	if p.blu != nil {
		p.blu.transformLanes(dst, src, inverse, ws)
		return
	}
	p.recurseLanes(dst, src, 1, 0, inverse)
}

// recurseLanes performs the decimation-in-time mixed-radix step at
// recursion depth d over a lane block: split into r sub-transforms of
// length m reading src with stride, then combine in place in dst using the
// stage's precomputed tables,
//
//	X[k + p*m] = sum_q tw[q*m+k] * root[(q*p) mod r] * F_q[k],
//
// with every element offset scaled by Width. Two rules keep the combine to
// the arithmetic it needs: the k = 0 column (and the q = 0 row) of every
// twiddle table is exactly 1, so those multiplies are skipped; and the
// last level (m = 1) gathers its r leaves inline instead of recursing r
// times into a one-element copy.
func (p *Plan) recurseLanes(dst, src lanes.Slab, stride, d int, inverse bool) {
	st := &p.stages[d]
	r, m := st.r, st.m
	if m == 1 {
		for q := 0; q < r; q++ {
			copyLane((*[lw]float64)(dst.Re[q*lw:]), (*[lw]float64)(src.Re[q*stride*lw:]))
			copyLane((*[lw]float64)(dst.Im[q*lw:]), (*[lw]float64)(src.Im[q*stride*lw:]))
		}
	} else {
		for q := 0; q < r; q++ {
			sub := lanes.Slab{Re: src.Re[q*stride*lw:], Im: src.Im[q*stride*lw:]}
			p.recurseLanes(dst.Slice(q*m*lw, (q+1)*m*lw), sub, stride*r, d+1, inverse)
		}
	}
	twre, twim := st.twFre, st.twFim
	rore, roim := st.rootFre, st.rootFim
	if inverse {
		twre, twim = st.twIre, st.twIim
		rore, roim = st.rootIre, st.rootIim
	}
	dre, dim := dst.Re, dst.Im
	switch r {
	case 2:
		for k := 0; k < m; k++ {
			ar := (*[lw]float64)(dre[k*lw:])
			ai := (*[lw]float64)(dim[k*lw:])
			br := (*[lw]float64)(dre[(m+k)*lw:])
			bi := (*[lw]float64)(dim[(m+k)*lw:])
			if k == 0 {
				for l := 0; l < lw; l++ {
					ar[l], br[l] = ar[l]+br[l], ar[l]-br[l]
					ai[l], bi[l] = ai[l]+bi[l], ai[l]-bi[l]
				}
				continue
			}
			wr, wi := twre[m+k], twim[m+k]
			for l := 0; l < lw; l++ {
				tr := br[l]*wr - bi[l]*wi
				ti := br[l]*wi + bi[l]*wr
				br[l] = ar[l] - tr
				bi[l] = ai[l] - ti
				ar[l] += tr
				ai[l] += ti
			}
		}
	case 3:
		// root[1] = -1/2 + i*s3 and root[2] = conj(root[1]), so with
		// s = x+y and d = x-y the outputs are a+s and a - s/2 ± i*s3*d.
		s3 := roim[1]
		for k := 0; k < m; k++ {
			ar := (*[lw]float64)(dre[k*lw:])
			ai := (*[lw]float64)(dim[k*lw:])
			br := (*[lw]float64)(dre[(m+k)*lw:])
			bi := (*[lw]float64)(dim[(m+k)*lw:])
			cr := (*[lw]float64)(dre[(2*m+k)*lw:])
			ci := (*[lw]float64)(dim[(2*m+k)*lw:])
			if k == 0 {
				for l := 0; l < lw; l++ {
					ar[l], ai[l], br[l], bi[l], cr[l], ci[l] = bfly3(ar[l], ai[l], br[l], bi[l], cr[l], ci[l], s3)
				}
				continue
			}
			b1r, b1i := twre[m+k], twim[m+k]
			b2r, b2i := twre[2*m+k], twim[2*m+k]
			for l := 0; l < lw; l++ {
				xr := br[l]*b1r - bi[l]*b1i
				xi := br[l]*b1i + bi[l]*b1r
				yr := cr[l]*b2r - ci[l]*b2i
				yi := cr[l]*b2i + ci[l]*b2r
				ar[l], ai[l], br[l], bi[l], cr[l], ci[l] = bfly3(ar[l], ai[l], xr, xi, yr, yi, s3)
			}
		}
	case 4:
		// root[1] = ∓i: s4 = ∓1 (the tabulated imaginary part, exact), and
		// the real part, zero up to rounding, is dropped.
		s4 := roim[1]
		for k := 0; k < m; k++ {
			ar := (*[lw]float64)(dre[k*lw:])
			ai := (*[lw]float64)(dim[k*lw:])
			br := (*[lw]float64)(dre[(m+k)*lw:])
			bi := (*[lw]float64)(dim[(m+k)*lw:])
			cr := (*[lw]float64)(dre[(2*m+k)*lw:])
			ci := (*[lw]float64)(dim[(2*m+k)*lw:])
			er := (*[lw]float64)(dre[(3*m+k)*lw:])
			ei := (*[lw]float64)(dim[(3*m+k)*lw:])
			if k == 0 {
				for l := 0; l < lw; l++ {
					ar[l], ai[l], br[l], bi[l], cr[l], ci[l], er[l], ei[l] =
						bfly4(ar[l], ai[l], br[l], bi[l], cr[l], ci[l], er[l], ei[l], s4)
				}
				continue
			}
			w1r, w1i := twre[m+k], twim[m+k]
			w2r, w2i := twre[2*m+k], twim[2*m+k]
			w3r, w3i := twre[3*m+k], twim[3*m+k]
			for l := 0; l < lw; l++ {
				xr := br[l]*w1r - bi[l]*w1i
				xi := br[l]*w1i + bi[l]*w1r
				yr := cr[l]*w2r - ci[l]*w2i
				yi := cr[l]*w2i + ci[l]*w2r
				zr := er[l]*w3r - ei[l]*w3i
				zi := er[l]*w3i + ei[l]*w3r
				ar[l], ai[l], br[l], bi[l], cr[l], ci[l], er[l], ei[l] =
					bfly4(ar[l], ai[l], xr, xi, yr, yi, zr, zi, s4)
			}
		}
	default:
		var tr, ti [maxDirectRadix][lw]float64
		for k := 0; k < m; k++ {
			tr[0] = *(*[lw]float64)(dre[k*lw:])
			ti[0] = *(*[lw]float64)(dim[k*lw:])
			for q := 1; q < r; q++ {
				sr := (*[lw]float64)(dre[(q*m+k)*lw:])
				si := (*[lw]float64)(dim[(q*m+k)*lw:])
				if k == 0 {
					tr[q], ti[q] = *sr, *si
					continue
				}
				wr, wi := twre[q*m+k], twim[q*m+k]
				for l := 0; l < lw; l++ {
					tr[q][l] = sr[l]*wr - si[l]*wi
					ti[q][l] = sr[l]*wi + si[l]*wr
				}
			}
			// Output 0 has unit roots throughout: a plain sum.
			accr, acci := tr[0], ti[0]
			for q := 1; q < r; q++ {
				for l := 0; l < lw; l++ {
					accr[l] += tr[q][l]
					acci[l] += ti[q][l]
				}
			}
			*(*[lw]float64)(dre[k*lw:]) = accr
			*(*[lw]float64)(dim[k*lw:]) = acci
			for pp := 1; pp < r; pp++ {
				accr, acci = tr[0], ti[0]
				idx := 0
				for q := 1; q < r; q++ {
					idx += pp
					if idx >= r {
						idx -= r
					}
					wr, wi := rore[idx], roim[idx]
					for l := 0; l < lw; l++ {
						accr[l] += tr[q][l]*wr - ti[q][l]*wi
						acci[l] += tr[q][l]*wi + ti[q][l]*wr
					}
				}
				*(*[lw]float64)(dre[(pp*m+k)*lw:]) = accr
				*(*[lw]float64)(dim[(pp*m+k)*lw:]) = acci
			}
		}
	}
}

// bfly3 is the closed-form radix-3 butterfly on twiddled inputs a, x, y:
// with s = x+y and d = x-y, X0 = a+s and X1,2 = a - s/2 ± i*s3*d, where
// s3 = Im root[1] = ∓sqrt(3)/2. Two real multiplies per output pair
// replace the four complex multiplies by tabulated roots.
func bfly3(ar, ai, xr, xi, yr, yi, s3 float64) (x0r, x0i, x1r, x1i, x2r, x2i float64) {
	sr, si := xr+yr, xi+yi
	dr, di := s3*(xr-yr), s3*(xi-yi)
	hr, hi := ar-0.5*sr, ai-0.5*si
	return ar + sr, ai + si, hr - di, hi + dr, hr + di, hi - dr
}

// bfly4 is the radix-4 butterfly on twiddled inputs a, x, y, z with
// root[1] = i*s4 (s4 = ∓1): the rotation of x-z is a swap and a sign.
func bfly4(ar, ai, xr, xi, yr, yi, zr, zi, s4 float64) (x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i float64) {
	ar, ai, yr, yi = ar+yr, ai+yi, ar-yr, ai-yi
	xr, xi, zr, zi = xr+zr, xi+zi, s4*(zi-xi), s4*(xr-zr)
	return ar + xr, ai + xi, yr + zr, yi + zi, ar - xr, ai - xi, yr - zr, yi - zi
}

// transformLanes is the lane-blocked Bluestein chirp-z transform. The 1/m
// normalization of the inner inverse is folded into the final chirp
// multiply, saving one pass over the convolution buffer.
func (b *bluestein) transformLanes(dst, src lanes.Slab, inverse bool, ws *Workspace) {
	chre, chim := b.chirpFre, b.chirpFim
	kre, kim := b.kernelFre, b.kernelFim
	if inverse {
		chre, chim = b.chirpIre, b.chirpIim
		kre, kim = b.kernelBre, b.kernelBim
	}
	la, lfa := ws.la, ws.lfa
	for j := 0; j < b.n; j++ {
		wr, wi := chre[j], chim[j]
		sr := (*[lw]float64)(src.Re[j*lw:])
		si := (*[lw]float64)(src.Im[j*lw:])
		ar := (*[lw]float64)(la.Re[j*lw:])
		ai := (*[lw]float64)(la.Im[j*lw:])
		for l := 0; l < lw; l++ {
			ar[l] = sr[l]*wr - si[l]*wi
			ai[l] = sr[l]*wi + si[l]*wr
		}
	}
	for j := b.n * lw; j < b.m*lw; j++ {
		la.Re[j] = 0
		la.Im[j] = 0
	}
	b.inner.recurseLanes(lfa, la, 1, 0, false)
	for i := 0; i < b.m; i++ {
		wr, wi := kre[i], kim[i]
		ar := (*[lw]float64)(lfa.Re[i*lw:])
		ai := (*[lw]float64)(lfa.Im[i*lw:])
		for l := 0; l < lw; l++ {
			xr := ar[l]*wr - ai[l]*wi
			ai[l] = ar[l]*wi + ai[l]*wr
			ar[l] = xr
		}
	}
	b.inner.recurseLanes(la, lfa, 1, 0, true)
	invm := 1 / float64(b.m)
	for k := 0; k < b.n; k++ {
		wr, wi := chre[k]*invm, chim[k]*invm
		ar := (*[lw]float64)(la.Re[k*lw:])
		ai := (*[lw]float64)(la.Im[k*lw:])
		dr := (*[lw]float64)(dst.Re[k*lw:])
		di := (*[lw]float64)(dst.Im[k*lw:])
		for l := 0; l < lw; l++ {
			dr[l] = ar[l]*wr - ai[l]*wi
			di[l] = ar[l]*wi + ai[l]*wr
		}
	}
}
