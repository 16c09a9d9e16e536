package sim

import (
	"pmoctree/internal/core"
	"pmoctree/internal/morton"
	"pmoctree/internal/parallel"
	"pmoctree/internal/telemetry"
	"pmoctree/internal/tile"
)

// The tiled sweep stores the octree payload verbatim.
var _ = [1]struct{}{}[tile.Words-DataWords]

// minTileSolve is the serial cutoff (in cells) for the tiled relaxation
// sweep: one cell costs an exp and a handful of flops, so small meshes
// run inline.
const minTileSolve = 4096

// StepWorkers is StepField with an explicit worker count: the refinement,
// coarsening and solve PREDICATES — the level-set evaluations that
// dominate the step's CPU time — are pre-evaluated in parallel over a
// snapshot of the leaf codes, while the octree traversal and all device
// accesses stay serial. The mesh evolution (refines, coarsens, field
// values, step counts) is therefore bit-identical at every worker count;
// workers <= 0 selects GOMAXPROCS and 1 is exactly the serial StepField.
func StepWorkers(m Mesh, f Field, step int, maxLevel uint8, workers int) StepCounts {
	if workers == 1 {
		return StepFieldPool(m, f, step, maxLevel, nil)
	}
	return StepFieldPool(m, f, step, maxLevel, parallel.New(workers))
}

// StepFieldPool advances mesh through one AMR time step, scheduling
// predicate evaluation on pool (nil pool: serial, identical to the
// original StepField).
//
// In parallel mode the driver performs extra read-only leaf walks to
// snapshot the codes it pre-evaluates; those walks are charged to the
// modeled devices like any other traversal, so modeled time differs
// from the serial path even though the simulation state does not.
func StepFieldPool(m Mesh, f Field, step int, maxLevel uint8, pool *parallel.Pool) StepCounts {
	// The mesh spans its own routines; the driver only tags them with the
	// step index (core.Tree tags with its own version counter instead).
	telemetry.TracerOf(m).SetStep(uint64(step))
	var sc StepCounts
	serial := pool.Workers() == 1

	refine := RefinePredOf(f, step)
	if !serial {
		refine = memoPred(leafIndex(m), pool, refine)
	}
	sc.Refined = m.RefineWhere(refine, maxLevel)

	coarsen := CoarsenPredOf(f, step)
	if !serial {
		coarsen = memoCoarsen(leafIndex(m), pool, coarsen)
	}
	sc.Coarsened = m.CoarsenWhere(coarsen)

	sc.Balanced = m.Balance()

	if tm, tiled := m.(tiledMesh); !serial && tiled {
		// Tiled SoA fast path: gather the leaves into the flat tile store
		// once, run all sweeps over the contiguous field slices, scatter
		// the changed cells back. Bit-identical to the sweeps below.
		sc.Solved, sc.Leaves = tiledSolve(tm, f, step, pool)
		return sc
	}

	solve := SolveOf(f, step)
	if !serial {
		// The level set is a pure function of (cell, step): evaluate it
		// once per leaf in parallel and share it across all sweeps. The
		// serial path re-evaluates it every sweep, so this also removes
		// (SolverSweeps-1)/SolverSweeps of the level-set work.
		solve = memoSolve(leafIndex(m), pool, f, step)
	}
	for it := 0; it < SolverSweeps; it++ {
		if n := m.UpdateLeaves(solve); it == 0 {
			sc.Solved = n
		}
	}
	sc.Leaves = m.LeafCount()
	return sc
}

// tiledMesh is the optional fast-path contract (core.Tree provides it):
// a cached Z-order leaf index, a gathered Morton-ordered tile image of
// the leaves, and the scatter writing modified cells back. Field results
// are bit-identical to the Mesh sweeps; only the modeled device traffic
// differs, which the parallel driver already does not preserve (see
// StepFieldPool's doc).
type tiledMesh interface {
	Mesh
	LeafSnapshot() *core.LeafIndex
	LeafTiles() *tile.Store
	ScatterLeafTiles(*tile.Store) int
}

// tiledSolve runs the relaxation sweeps over the mesh's tiled SoA leaf
// image: one gather, SolverSweeps flat sweeps scheduled in tile-aligned
// chunks, one scatter of every cell any sweep changed. The per-cell
// update is solveCellFlat — solveCell's arithmetic term for term — and
// the changed counts are integer sums folded in tile order, so the mesh
// evolution is bit-identical to the per-leaf path at every worker count.
func tiledSolve(tm tiledMesh, f Field, step int, pool *parallel.Pool) (solved, leaves int) {
	st := tm.LeafTiles()
	codes := st.Codes()
	n := len(codes)
	// The level set is a pure function of (cell, step): evaluate it once
	// per leaf in parallel and share it across all sweeps, alongside the
	// cell extents the smoothing band scales with.
	phis := make([]float64, n)
	eps := make([]float64, n)
	pool.Run(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x, y, z := codes[i].Center()
			phis[i] = f.PhiAtStep(x, y, z, step)
			eps[i] = codes[i].Extent()
		}
	})
	speed := f.Speed()
	counts := make([]int32, st.Tiles())
	for it := 0; it < SolverSweeps; it++ {
		st.RunTileRanges(pool, minTileSolve, func(tileLo, tileHi int) {
			for ti := tileLo; ti < tileHi; ti++ {
				lo, hi := st.TileBounds(ti)
				changed := int32(0)
				for i := lo; i < hi; i++ {
					if solveCellFlat(speed, phis[i], eps[i], i, st) {
						st.MarkDirty(i)
						changed++
					}
				}
				counts[ti] = changed
			}
		})
		if it == 0 {
			for _, c := range counts {
				solved += int(c)
			}
		}
	}
	tm.ScatterLeafTiles(st)
	return solved, n
}

// leafIndex returns the Z-order index of the mesh's current leaves.
// core.Tree serves its cached index (free when still valid); any other
// mesh pays a charged read-only leaf walk, which emits leaves in Z-order.
// The memos built on it are read while the mesh mutates; core.Tree only
// rebuilds its index in a later LeafSnapshot call, so that is safe.
func leafIndex(m Mesh) *core.LeafIndex {
	if tm, ok := m.(tiledMesh); ok {
		return tm.LeafSnapshot()
	}
	codes := make([]morton.Code, 0, m.LeafCount())
	m.ForEachLeaf(func(c morton.Code, _ [DataWords]float64) bool {
		codes = append(codes, c)
		return true
	})
	return core.NewLeafIndex(codes)
}

// memoPred evaluates pred at every indexed leaf on the pool and returns a
// lookup predicate. Codes outside the index (octants created mid-pass —
// refinement recursing into fresh children) fall back to direct
// evaluation, so the memo is an optimization, never a semantic change.
func memoPred(ix *core.LeafIndex, pool *parallel.Pool, pred func(morton.Code) bool) func(morton.Code) bool {
	codes := ix.Codes()
	vals := make([]bool, len(codes))
	pool.Run(len(codes), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			vals[i] = pred(codes[i])
		}
	})
	return func(c morton.Code) bool {
		if i, ok := ix.Find(c); ok {
			return vals[i]
		}
		return pred(c)
	}
}

// memoCoarsen is memoPred for the coarsening predicate, which tests the
// PARENT of a complete sibling group: parent p's value is stored at the
// position of its first child. Parents whose first child is not an
// indexed leaf (coarsening cascading upward) fall back to direct
// evaluation.
func memoCoarsen(ix *core.LeafIndex, pool *parallel.Pool, pred func(morton.Code) bool) func(morton.Code) bool {
	codes := ix.Codes()
	vals := make([]bool, len(codes))
	pool.Run(len(codes), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if c := codes[i]; c.Level() > 0 && c.ChildIndex() == 0 {
				vals[i] = pred(c.Parent())
			}
		}
	})
	return func(p morton.Code) bool {
		if p.Level() < morton.MaxLevel {
			if i, ok := ix.Find(p.Child(0)); ok {
				return vals[i]
			}
		}
		return pred(p)
	}
}

// memoSolve pre-evaluates the level set at every indexed leaf center on
// the pool and returns the relaxation sweep reading from the memo
// (falling back to direct evaluation for unknown codes).
func memoSolve(ix *core.LeafIndex, pool *parallel.Pool, f Field, step int) func(morton.Code, *[DataWords]float64) bool {
	codes := ix.Codes()
	phis := make([]float64, len(codes))
	pool.Run(len(codes), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x, y, z := codes[i].Center()
			phis[i] = f.PhiAtStep(x, y, z, step)
		}
	})
	speed := f.Speed()
	return func(c morton.Code, data *[DataWords]float64) bool {
		var phi float64
		if i, ok := ix.Find(c); ok {
			phi = phis[i]
		} else {
			x, y, z := c.Center()
			phi = f.PhiAtStep(x, y, z, step)
		}
		return solveCell(speed, phi, c, data)
	}
}
