// Package solver implements a cell-centered finite-volume Poisson solver
// on 2:1-balanced adaptive octree meshes — the pressure-projection core a
// Gerris-style incompressible flow solver runs every time step (§4 of the
// paper). Two iterations are provided: geometric multigrid V-cycles on
// uniform hierarchies (Multigrid — the Gerris solver family, with
// iteration counts flat under refinement) and Jacobi-preconditioned
// conjugate gradients (System.Solve / SolveNeumann) for arbitrary
// 2:1-balanced adaptive meshes. Both sweep the same stencils, so the
// memory access pattern the octree observes is identical.
//
// The discretization is the standard graded-octree two-point flux: for
// the face between cells i and j,
//
//	F_ij = T_ij (x_i - x_j),   T_ij = A_f / d_ij
//
// where A_f is the (finer side's) face area and d_ij the center distance.
// Under the 2:1 constraint a face joins cells at most one level apart, so
// every face is either matched (1:1) or split (1:4), and assembling from
// both sides yields a symmetric positive-definite operator. Domain
// boundary faces carry homogeneous Dirichlet conditions through a ghost
// value at the wall.
package solver

import (
	"fmt"
	"math"
	"sort"

	"pmoctree/internal/core"
	"pmoctree/internal/morton"
	"pmoctree/internal/parallel"
)

// Serial cutoffs for pool.RunMin (pr4: the PR 2 pool parallelized every
// sweep unconditionally, and on small meshes the spawn-and-join overhead
// made 4 workers slower than serial). Stencil sweeps (Apply, Divergence,
// Gradient, restriction) chase face lists and do tens of flops per cell;
// axpy-style vector updates do two or three, so they need a much larger
// range before goroutines pay off.
const (
	minStencil = 4096
	minAxpy    = 1 << 15
)

// face is one flux connection of a cell.
type face struct {
	neighbor int     // index of the adjacent cell, -1 for a wall
	t        float64 // transmissibility A/d
	dir      int     // direction index into dirs (axis + orientation)
	area     float64 // face area
}

// System is the assembled Poisson operator on one mesh snapshot.
//
// The hot kernels sweep the flat CSR face arrays (rowStart/nb/tr/...): one
// contiguous run of neighbor indices and coefficients per cell, in
// ascending Z-order, instead of chasing a []face slice header per cell.
// The legacy AoS layout (faces) is retained behind SetReferenceMode for
// the A/B benchmarks and the bit-identity tests that pin the two layouts
// to the same results (DESIGN.md decision 16).
//
// A System is safe for concurrent read-only use (Apply, Divergence, ...
// into caller-owned output vectors); the iterative solvers own their
// scratch state, so distinct Solve calls on distinct vectors may also run
// concurrently.
type System struct {
	codes []morton.Code
	index map[morton.Code]int
	faces [][]face
	diag  []float64 // sum of transmissibilities per cell

	// CSR face arrays: cell i's faces are entries
	// [rowStart[i], rowStart[i+1]) of nb/tr/fdir/farea, in the same order
	// the AoS assembly produced them (so accumulations are bit-identical).
	rowStart []int32
	nb       []int32 // adjacent cell index, -1 for a wall
	tr       []float64
	fdir     []uint8
	farea    []float64

	// Per-cell geometry, precomputed once at build.
	extent []float64
	vol    []float64 // extent^3, evaluated exactly like the sweeps did

	// Point-location index: cells indexes the codes in Z-order, and
	// perm[k] is the cell number of its k-th entry. CellAt searches it
	// instead of probing the map level by level.
	cells *core.LeafIndex
	perm  []int32

	ref bool // sweep the legacy AoS layout instead of CSR

	// pool schedules the matrix-free kernels; nil runs them inline.
	// Reductions go through the pool's blocked summation either way, so
	// results are bit-identical at every worker count.
	pool *parallel.Pool
}

// SetReferenceMode selects the legacy AoS face-list sweeps instead of the
// flat CSR arrays. Results are bit-identical either way; the reference
// path exists so benchmarks can decompose layout from scheduling and so
// tests can pin the identity.
func (s *System) SetReferenceMode(on bool) { s.ref = on }

// SetWorkers sets the worker count for the system's kernels (SpMV,
// axpy-style sweeps, reductions). n <= 0 selects GOMAXPROCS; 1 restores
// serial inline execution. Results are bit-identical for every n — the
// reductions are deterministic blocked sums (see internal/parallel).
func (s *System) SetWorkers(n int) {
	if n == 1 {
		s.pool = nil
		return
	}
	s.pool = parallel.New(n)
}

// SetPool attaches a caller-owned (possibly instrumented) pool; nil
// restores serial execution.
func (s *System) SetPool(p *parallel.Pool) { s.pool = p }

// Workers reports the configured scheduling width.
func (s *System) Workers() int { return s.pool.Workers() }

// dirs are the six face directions.
var dirs = [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}

// Build assembles the operator from the leaf codes of a 2:1-balanced
// octree tiling. It returns an error when the input violates the
// constraint or does not tile the domain.
func Build(leaves []morton.Code) (*System, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("solver: no cells")
	}
	s := &System{
		codes: append([]morton.Code(nil), leaves...),
		index: make(map[morton.Code]int, len(leaves)),
		faces: make([][]face, len(leaves)),
		diag:  make([]float64, len(leaves)),
	}
	vol := 0.0
	for i, c := range s.codes {
		if _, dup := s.index[c]; dup {
			return nil, fmt.Errorf("solver: duplicate cell %v", c)
		}
		s.index[c] = i
		e := c.Extent()
		vol += e * e * e
	}
	if math.Abs(vol-1) > 1e-9 {
		return nil, fmt.Errorf("solver: cells cover volume %v, want 1 (not a tiling)", vol)
	}

	for i, c := range s.codes {
		h := c.Extent()
		l := c.Level()
		for di, d := range dirs {
			n, ok := c.Neighbor(d[0], d[1], d[2])
			if !ok {
				// Domain wall: Dirichlet ghost at distance h/2.
				t := h * h / (h / 2)
				s.faces[i] = append(s.faces[i], face{neighbor: -1, t: t, dir: di, area: h * h})
				s.diag[i] += t
				continue
			}
			if j, ok := s.index[n]; ok {
				// Matched neighbor.
				t := h * h / h
				s.faces[i] = append(s.faces[i], face{neighbor: j, t: t, dir: di, area: h * h})
				s.diag[i] += t
				continue
			}
			// Coarser neighbor: an ancestor of n holds the cell.
			if j, lj, ok := s.findCoarser(n, l); ok {
				hj := 1.0 / float64(uint64(1)<<lj)
				t := h * h / ((h + hj) / 2)
				s.faces[i] = append(s.faces[i], face{neighbor: j, t: t, dir: di, area: h * h})
				s.diag[i] += t
				continue
			}
			// Finer neighbors: the 4 children of n touching this face.
			kids, err := s.fineFaceNeighbors(c, n, d)
			if err != nil {
				return nil, err
			}
			for _, j := range kids {
				hj := s.codes[j].Extent()
				t := hj * hj / ((h + hj) / 2)
				s.faces[i] = append(s.faces[i], face{neighbor: j, t: t, dir: di, area: hj * hj})
				s.diag[i] += t
			}
		}
	}
	s.flatten()
	return s, nil
}

// flatten transposes the AoS face lists into the CSR arrays, precomputes
// per-cell geometry, and builds the sorted point-location index. Face
// order within each row is preserved exactly, so every CSR accumulation
// rounds identically to its AoS counterpart.
func (s *System) flatten() {
	n := len(s.codes)
	total := 0
	for i := range s.faces {
		total += len(s.faces[i])
	}
	s.rowStart = make([]int32, n+1)
	s.nb = make([]int32, 0, total)
	s.tr = make([]float64, 0, total)
	s.fdir = make([]uint8, 0, total)
	s.farea = make([]float64, 0, total)
	s.extent = make([]float64, n)
	s.vol = make([]float64, n)
	for i, fl := range s.faces {
		s.rowStart[i] = int32(len(s.nb))
		for _, f := range fl {
			s.nb = append(s.nb, int32(f.neighbor))
			s.tr = append(s.tr, f.t)
			s.fdir = append(s.fdir, uint8(f.dir))
			s.farea = append(s.farea, f.area)
		}
		e := s.codes[i].Extent()
		s.extent[i] = e
		s.vol[i] = e * e * e
	}
	s.rowStart[n] = int32(len(s.nb))

	s.perm = make([]int32, n)
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	sort.Slice(s.perm, func(a, b int) bool {
		return s.codes[s.perm[a]].Key() < s.codes[s.perm[b]].Key()
	})
	sorted := make([]morton.Code, n)
	for k, p := range s.perm {
		sorted[k] = s.codes[p]
	}
	s.cells = core.NewLeafIndex(sorted)
}

// findCoarser walks up the ancestors of n looking for an existing cell.
func (s *System) findCoarser(n morton.Code, below uint8) (int, uint8, bool) {
	for l := int(below) - 1; l >= 0; l-- {
		anc := n.AncestorAt(uint8(l))
		if j, ok := s.index[anc]; ok {
			return j, uint8(l), true
		}
	}
	return 0, 0, false
}

// fineFaceNeighbors returns the children of n on the face adjacent to c.
// Under 2:1 balance they must exist as cells.
func (s *System) fineFaceNeighbors(c, n morton.Code, d [3]int) ([]int, error) {
	if n.Level() >= morton.MaxLevel {
		return nil, fmt.Errorf("solver: missing neighbor of %v at max level", c)
	}
	var out []int
	for k := 0; k < 8; k++ {
		// The child faces c when its bit along the direction axis is on
		// the side facing BACK toward c. Moving +x from c means the
		// neighbor's near children have x-bit 0; moving -x, x-bit 1.
		xb, yb, zb := k&1, (k>>1)&1, (k>>2)&1
		if d[0] == 1 && xb != 0 || d[0] == -1 && xb != 1 {
			continue
		}
		if d[1] == 1 && yb != 0 || d[1] == -1 && yb != 1 {
			continue
		}
		if d[2] == 1 && zb != 0 || d[2] == -1 && zb != 1 {
			continue
		}
		child := n.Child(k)
		j, ok := s.index[child]
		if !ok {
			return nil, fmt.Errorf("solver: mesh not 2:1 balanced at %v (missing %v)", c, child)
		}
		out = append(out, j)
	}
	return out, nil
}

// N returns the number of cells.
func (s *System) N() int { return len(s.codes) }

// Codes returns the cell codes in assembly order.
func (s *System) Codes() []morton.Code { return s.codes }

// Apply computes y = A x, where A is the (SPD) negative Laplacian with
// Dirichlet walls: (Ax)_i = sum_f T_f (x_i - x_j), wall x_j = 0. Rows are
// independent, so the sweep parallelizes without changing any result bit.
func (s *System) Apply(x, y []float64) {
	if s.ref {
		s.applyRef(x, y)
		return
	}
	rs, nb, tr := s.rowStart, s.nb, s.tr
	s.pool.RunMin(len(s.codes), minStencil, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := s.diag[i] * x[i]
			for k := rs[i]; k < rs[i+1]; k++ {
				if j := nb[k]; j >= 0 {
					acc -= tr[k] * x[j]
				}
			}
			y[i] = acc
		}
	})
}

// Options tunes the CG iteration.
type Options struct {
	// Tol is the relative residual target (default 1e-8).
	Tol float64
	// MaxIter bounds the iteration count (default 10*N).
	MaxIter int
}

// Result reports a completed solve.
type Result struct {
	Iterations int
	Residual   float64 // final relative residual
	Converged  bool
}

// Solve runs Jacobi-preconditioned conjugate gradients on A x = b·V (b is
// a cell-centered source density; the right-hand side integrates it over
// each cell volume). x is overwritten with the solution; pass a zero
// slice for a cold start.
func (s *System) Solve(b []float64, x []float64, opt Options) (Result, error) {
	n := s.N()
	if len(b) != n || len(x) != n {
		return Result{}, fmt.Errorf("solver: vector length %d/%d, want %d", len(b), len(x), n)
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10 * n
	}

	// rhs_i = b_i * V_i (finite-volume integration).
	rhs := make([]float64, n)
	s.pool.RunMin(n, minAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := s.codes[i].Extent()
			rhs[i] = b[i] * e * e * e
		}
	})

	r := make([]float64, n)
	s.Apply(x, r)
	s.pool.RunMin(n, minAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r[i] = rhs[i] - r[i]
		}
	})
	z := make([]float64, n)
	precond := func() {
		s.pool.RunMin(n, minAxpy, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				z[i] = r[i] / s.diag[i]
			}
		})
	}
	precond()
	p := append([]float64(nil), z...)
	ap := make([]float64, n)

	rz := s.pool.Dot(r, z)
	// An all-zero right-hand side (no sources anywhere) has the exact
	// solution x = 0; dividing by norm0 would turn every residual into
	// NaN, so report the converged zero solution instead.
	norm0 := s.pool.Norm2(rhs)
	if norm0 == 0 {
		for i := range x {
			x[i] = 0
		}
		return Result{Converged: true}, nil
	}

	var res Result
	for res.Iterations = 0; res.Iterations < opt.MaxIter; res.Iterations++ {
		res.Residual = s.pool.Norm2(r) / norm0
		if res.Residual <= opt.Tol {
			res.Converged = true
			return res, nil
		}
		s.Apply(p, ap)
		alpha := rz / s.pool.Dot(p, ap)
		s.pool.RunMin(n, minAxpy, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x[i] += alpha * p[i]
				r[i] -= alpha * ap[i]
			}
		})
		precond()
		rzNew := s.pool.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		s.pool.RunMin(n, minAxpy, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				p[i] = z[i] + beta*p[i]
			}
		})
	}
	res.Residual = s.pool.Norm2(r) / norm0
	res.Converged = res.Residual <= opt.Tol
	return res, nil
}

// dot is the serial form of the deterministic blocked inner product —
// the same blocking every pool width uses (internal/parallel).
func dot(a, b []float64) float64 {
	return (*parallel.Pool)(nil).Dot(a, b)
}
