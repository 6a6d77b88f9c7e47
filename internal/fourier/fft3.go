package fourier

import (
	"fmt"
	"sync"

	"ptdft/internal/lanes"
)

// Plan3 is a three-dimensional transform plan over a row-major grid with
// index (ix*Ny + iy)*Nz + iz. Its transforms (slab.go) run on the calling
// goroutine; callers parallelize over bands or pairs. A Plan3 is immutable
// and safe for concurrent use: per-call scratch lives in Workspace3 objects
// held by callers or drawn from the plan's pool, so steady-state transforms
// allocate nothing.
type Plan3 struct {
	nx, ny, nz int
	px, py, pz *Plan
	pool       sync.Pool // *Workspace3
}

// Workspace3 is the scratch one 3D transform needs: two lane blocks sized
// for the longest axis plus the 1D workspaces of any axis plan that falls
// back to Bluestein. A Workspace3 must not be shared between concurrent
// transforms.
type Workspace3 struct {
	lu, lv        lanes.Slab // maxdim*lanes.Width
	wsx, wsy, wsz *Workspace
}

// NewWorkspace allocates the scratch for one transform of this plan.
func (p *Plan3) NewWorkspace() *Workspace3 {
	n := p.nx
	if p.ny > n {
		n = p.ny
	}
	if p.nz > n {
		n = p.nz
	}
	return &Workspace3{
		lu:  lanes.New(n * lanes.Width),
		lv:  lanes.New(n * lanes.Width),
		wsx: p.px.NewWorkspace(),
		wsy: p.py.NewWorkspace(),
		wsz: p.pz.NewWorkspace(),
	}
}

// CheckoutWorkspace draws a workspace from the plan's pool, for one-shot
// callers that hold no per-worker scratch; pair it with ReturnWorkspace.
func (p *Plan3) CheckoutWorkspace() *Workspace3 { return p.pool.Get().(*Workspace3) }

// ReturnWorkspace gives a checked-out workspace back to the pool.
func (p *Plan3) ReturnWorkspace(ws *Workspace3) { p.pool.Put(ws) }

// NewPlan3 creates a 3D plan for an nx x ny x nz grid.
func NewPlan3(nx, ny, nz int) (*Plan3, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("fourier: invalid 3D dims %dx%dx%d", nx, ny, nz)
	}
	px, err := NewPlan(nx)
	if err != nil {
		return nil, err
	}
	py, err := NewPlan(ny)
	if err != nil {
		return nil, err
	}
	pz, err := NewPlan(nz)
	if err != nil {
		return nil, err
	}
	p := &Plan3{nx: nx, ny: ny, nz: nz, px: px, py: py, pz: pz}
	p.pool.New = func() any { return p.NewWorkspace() }
	return p, nil
}

// MustPlan3 is NewPlan3 that panics on error.
func MustPlan3(nx, ny, nz int) *Plan3 {
	p, err := NewPlan3(nx, ny, nz)
	if err != nil {
		panic(err)
	}
	return p
}

// Dims reports the grid dimensions.
func (p *Plan3) Dims() (nx, ny, nz int) { return p.nx, p.ny, p.nz }

// Size reports the total number of grid points.
func (p *Plan3) Size() int { return p.nx * p.ny * p.nz }
