package core

import (
	"slices"

	"pmoctree/internal/morton"
)

// Z-order leaf index. Octree AMR codes that run at hardware speed
// (Cornerstone, the p4est Morton representation) find leaves in a flat,
// Morton-sorted leaf array instead of pointer-chasing tree walks. A
// LeafIndex is that array; the leaf lookups of core, serve, sim and solver
// all go through its three binary searches. It is built one of three ways:
//
//   - Tree.LeafSnapshot: the working version's leaves, from one charged
//     tree walk, stamped with the tree's mutation sequence number;
//   - VersionPin.BuildLeafIndex: a pinned committed version's leaves,
//     from one charged walk of that version;
//   - NewLeafIndex: a code list already in Z-order, for meshes that are
//     not a Tree and for the solver's sorted cells.
//
// No builder sorts: the pre-order walk emits leaves in Z-order. Leaves
// are disjoint, so their inclusive KeySpans are disjoint and ordered like
// their keys — the last leaf whose key is <= k is the only candidate to
// hold k.
//
// Invalidation rule for the Tree's index: every octant write,
// partial-field write and free bumps the mutation sequence number, so any
// structural or data mutation invalidates the index and the next
// LeafSnapshot rebuilds it with one (charged) tree walk. Rebuild walks go
// through readOct like every other traversal, so the modeled device
// accounting of an explicit snapshot is identical to the leaf walk it
// replaces.

// LeafIndex is a Z-ordered leaf set: leaf codes, their Keys, and — for
// indexes built from a tree or a pinned version — each leaf's ref and
// payload. Lookups return positions into these parallel arrays. It is
// read-only to its users; only the Tree that owns one rebuilds it, and
// patches its payloads when a tile scatter writes leaves in place.
type LeafIndex struct {
	codes []morton.Code
	keys  []uint64
	refs  []Ref
	data  [][DataWords]float64
	seq   uint64 // Tree.mutSeq at build (Tree-owned index only)
}

// NewLeafIndex indexes codes, which must be disjoint leaves in strictly
// ascending Z-order (Key order). The index keeps codes; the caller must
// not modify it afterwards. Payloads are absent: Data must not be called
// on the result.
func NewLeafIndex(codes []morton.Code) *LeafIndex {
	ix := &LeafIndex{codes: codes, keys: make([]uint64, len(codes))}
	for i, c := range codes {
		ix.keys[i] = c.Key()
		if i > 0 && ix.keys[i] <= ix.keys[i-1] {
			panic("core: NewLeafIndex codes are not in strictly ascending Z-order")
		}
	}
	return ix
}

// addLeaf is the ForEachNode callback that appends each leaf it visits.
func (ix *LeafIndex) addLeaf(r Ref, o *Octant) bool {
	if o.IsLeaf() {
		ix.add(o.Code, r, o.Data)
	}
	return true
}

func (ix *LeafIndex) add(c morton.Code, r Ref, d [DataWords]float64) {
	ix.codes = append(ix.codes, c)
	ix.keys = append(ix.keys, c.Key())
	ix.refs = append(ix.refs, r)
	ix.data = append(ix.data, d)
}

// Len returns the number of leaves.
func (ix *LeafIndex) Len() int { return len(ix.codes) }

// Codes returns the leaf codes in Z-order. The slice is shared with the
// index and must not be modified.
func (ix *LeafIndex) Codes() []morton.Code { return ix.codes }

// Data returns leaf i's payload as of the index build.
func (ix *LeafIndex) Data(i int) [DataWords]float64 { return ix.data[i] }

// Find returns the position of the leaf with exactly code c. A key
// encodes both the anchor and the level, so one key comparison decides.
func (ix *LeafIndex) Find(c morton.Code) (int, bool) {
	return slices.BinarySearch(ix.keys, c.Key())
}

// Containing returns the position of the leaf whose inclusive KeySpan
// holds key k, or false when no leaf does.
func (ix *LeafIndex) Containing(k uint64) (int, bool) {
	i, found := slices.BinarySearch(ix.keys, k)
	if found {
		return i, true
	}
	if i == 0 {
		return 0, false
	}
	_, hi := ix.codes[i-1].KeySpan()
	return i - 1, k <= hi
}

// Window returns the run [first, last] of leaves whose keys lie in the
// inclusive key range [lo, hi]; the run is empty when last < first.
func (ix *LeafIndex) Window(lo, hi uint64) (first, last int) {
	first, _ = slices.BinarySearch(ix.keys, lo)
	end, found := slices.BinarySearch(ix.keys, hi)
	if found {
		end++
	}
	return first, end - 1
}

// noteMutation advances the mutation sequence number that stamps the
// leaf index. Every octant write, partial-field write, and free calls it.
func (t *Tree) noteMutation() { t.mutSeq++ }

// LeafSnapshot returns the working version's Z-order leaf index. It is
// cached and returned again (without any tree walk or device traffic)
// until the next mutation. Callers must not use it after a later
// LeafSnapshot or LeafTiles call has rebuilt it: the rebuild reuses its
// arrays.
func (t *Tree) LeafSnapshot() *LeafIndex {
	if t.leaves != nil && t.leaves.seq == t.mutSeq {
		t.fp.LeafIndexReuses++
		return t.leaves
	}
	seq := t.mutSeq
	ix := t.detachLeafIndex()
	t.ForEachNode(ix.addLeaf)
	ix.seq, t.leaves = seq, ix
	t.fp.LeafIndexRebuilds++
	return ix
}

// detachLeafIndex takes the tree's index out for a rebuild, emptied but
// keeping its arrays. The caller stores it back, stamped, once it is
// complete, so a walk aborted by a panic leaves no partial index behind.
func (t *Tree) detachLeafIndex() *LeafIndex {
	ix := t.leaves
	if ix == nil {
		return new(LeafIndex)
	}
	t.leaves = nil
	ix.codes, ix.keys, ix.refs, ix.data = ix.codes[:0], ix.keys[:0], ix.refs[:0], ix.data[:0]
	return ix
}
