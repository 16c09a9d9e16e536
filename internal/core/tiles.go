package core

import (
	"time"

	"pmoctree/internal/tile"
)

// Tiled SoA leaf storage (DESIGN.md decision 16). The Z-order leaf index
// (leafindex.go) already lists the working version's leaves in Morton
// order; LeafTiles transposes its payloads into the tile.Store SoA layout
// the hot kernels sweep, and ScatterLeafTiles writes the modified cells
// back, in place where it can and through the UpdateAt COW walk where a
// leaf is still shared with the committed version.
//
// Invalidation protocol: the store is stamped with the same mutation
// sequence number as the leaf index. Any octant write, partial-field
// write or free invalidates it; a scatter that only performed in-place
// data stores re-stamps both the index and the store, so steady-state
// solve steps (no refine/coarsen) pay ZERO re-gathers — the store stays
// bit-coherent with the tree across arbitrarily many sweep+scatter
// rounds. Gather reads only the cached index (no tree walk, no device
// traffic beyond what LeafSnapshot itself charges when it has to
// rebuild); the modeled device cost of the solve lives in the scatter's
// field writes.

// The tile layout carries the octree payload verbatim.
var _ = [1]struct{}{}[tile.Words-DataWords]

// LeafTiles returns the tiled SoA image of the working version's leaves,
// gathering (or re-gathering) only when a mutation invalidated the cached
// store. Callers sweep the returned store's flat slices, MarkDirty every
// modified cell, and hand the store back to ScatterLeafTiles; they must
// not retain it across tree mutations.
func (t *Tree) LeafTiles() *tile.Store {
	if t.tiles != nil && t.tiles.ValidFor(t.mutSeq) {
		t.fp.TileReuses++
		return t.tiles
	}
	defer t.span("Gather").End()
	start := time.Now()
	ix := t.LeafSnapshot()
	if t.tiles == nil {
		t.tiles = new(tile.Store)
	}
	t.tiles.Reset(ix.codes)
	for i := range ix.data {
		t.tiles.Set(i, ix.data[i])
	}
	t.tiles.Stamp(t.mutSeq)
	t.fp.TileRebuilds++
	t.fp.TileRebuildNs += uint64(time.Since(start).Nanoseconds())
	t.fp.TileGatherBytes += uint64(ix.Len()) * 8 * DataWords
	return t.tiles
}

// ScatterLeafTiles writes the store's dirty cells back into the tree and
// returns the number of cells written. In-place leaves take a single
// data-field store (patching the leaf index along the way); leaves
// shared with the committed version route through the UpdateAt COW walk.
// When every write was in place, the index and the store are
// re-stamped as valid — the next LeafTiles is free.
//
// The store must be the one LeafTiles returned, still valid for the
// current mutation sequence (i.e. the tree was not mutated behind it);
// a stale store panics rather than silently scattering into the wrong
// mesh.
func (t *Tree) ScatterLeafTiles(st *tile.Store) int {
	if st == nil || st != t.tiles || !st.ValidFor(t.mutSeq) {
		panic("core: ScatterLeafTiles on a stale or foreign tile store")
	}
	defer t.span("Scatter").End()
	written := 0
	structChanged := false
	ix := t.leaves
	st.ForEachDirty(func(i int) {
		data := st.Load(i)
		written++
		if r := ix.refs[i]; t.isCurrent(r) {
			o := Octant{Data: data}
			t.writeDataField(r, &o)
			ix.data[i] = data // keep the index payload coherent
		} else {
			t.UpdateAt(ix.codes[i], func(d *[DataWords]float64) { *d = data })
			structChanged = true
		}
	})
	st.ClearDirty()
	if !structChanged {
		// Only in-place data stores happened and both the index payloads
		// and the store were patched along the way: revalidate them so the
		// next gather is a reuse.
		ix.seq = t.mutSeq
		st.Stamp(t.mutSeq)
	}
	t.fp.TileScatters++
	t.fp.TileScatterBytes += uint64(written) * 8 * DataWords
	t.maybeEvict()
	return written
}

// TileOccupancy returns the mean tile fill of the current leaf tiling
// (gathering if needed); a metrics convenience.
func (t *Tree) TileOccupancy() float64 { return t.LeafTiles().Occupancy() }
