package bulk

import (
	"sort"

	"pmoctree/internal/morton"
	"pmoctree/internal/parallel"
)

// Balance validates leaves as a partition of the domain and returns the
// minimal 2:1 face-balanced refinement of it: the same fixed point
// core.Tree.Balance reaches by incremental splitting, computed here over
// the flat sorted array. The input slice is not modified; the result is
// sorted by Key.
func Balance(leaves []morton.Code, pool *parallel.Pool) ([]morton.Code, error) {
	sorted, src, err := validateAndSort(leaves, pool)
	if err != nil {
		return nil, err
	}
	sorted, _ = balanceClosure(sorted, src, pool)
	return sorted, nil
}

// balanceClosure iterates split rounds until no leaf violates the 2:1
// face constraint. Each round runs the violator finder it shares with
// core.Tree.Balance, FaceCovers, and marks a covering leaf for splitting
// when it is more than one level coarser than the leaf that probed it.
// Split children inherit the split leaf's src index, mirroring how
// incremental refinement copies payload down to new children.
//
// FaceCovers writes one slot per (probing leaf, axis), so which leaves
// split in a round — and therefore the fixed point's leaf order — never
// depends on chunk boundaries. The fixed point itself is the unique
// minimal balanced refinement, the same set core.Tree.Balance produces.
func balanceClosure(leaves []morton.Code, src []int32, pool *parallel.Pool) ([]morton.Code, []int32) {
	for {
		n := len(leaves)
		keys := make([]uint64, n)
		pool.Run(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				keys[i] = leaves[i].Key()
			}
		})
		split := make([]bool, n)
		nsplit := 0
		for s, j := range FaceCovers(keys, pool) {
			if j >= 0 && int(leaves[s/3].Level())-int(leaves[j].Level()) > 1 && !split[j] {
				split[j] = true
				nsplit++
			}
		}
		if nsplit == 0 {
			return leaves, src
		}
		// Children of a split leaf are contiguous and ascending in Key, so
		// the rebuilt array stays sorted.
		out := make([]morton.Code, 0, n+7*nsplit)
		osrc := make([]int32, 0, n+7*nsplit)
		for i, c := range leaves {
			if split[i] {
				for k := 0; k < 8; k++ {
					out = append(out, c.Child(k))
					osrc = append(osrc, src[i])
				}
			} else {
				out = append(out, c)
				osrc = append(osrc, src[i])
			}
		}
		leaves, src = out, osrc
	}
}

// FaceCovers is the 2:1 violator finder over a flat leaf array: it
// resolves every leaf's outward face neighbours to the leaves covering
// them. keys are the leaves' Keys, ascending, and the leaves must
// partition the domain.
//
// A leaf's face neighbours inside its own parent are its siblings, the
// same level by construction, so each leaf has at most one outward
// neighbour per axis: +1 from an odd coordinate, -1 from an even one.
// Slot 3*i+a holds the index of the leaf covering leaf i's outward
// neighbour along axis a (x, y, z), or -1 where that face lies on the
// domain boundary. The covering leaf is found by binary search for the
// neighbour's first MaxLevel cell: the bare neighbour Key would sort
// before a finer leaf anchored at the same corner and miss it. When the
// neighbour region is more refined than the neighbour itself, the cover is
// the finer leaf at that corner.
func FaceCovers(keys []uint64, pool *parallel.Pool) []int32 {
	out := make([]int32, 3*len(keys))
	pool.Run(len(keys), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x, y, z, l := morton.FromKey(keys[i]).Decode()
			for a := 0; a < 3; a++ {
				nb := [3]uint32{x, y, z}
				if nb[a]&1 == 1 {
					nb[a]++
				} else {
					nb[a]-- // wraps past the grid from 0
				}
				if nb[a] >= 1<<l {
					out[3*i+a] = -1
					continue
				}
				cell := morton.Encode(nb[0], nb[1], nb[2], l).Key()&^63 | morton.MaxLevel
				out[3*i+a] = int32(sort.Search(len(keys), func(k int) bool { return keys[k] > cell }) - 1)
			}
		}
	})
	return out
}
