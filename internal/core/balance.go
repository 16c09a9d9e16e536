package core

import (
	"math/bits"

	"pmoctree/internal/bulk"
	"pmoctree/internal/morton"
)

// Balance enforces the 2:1 constraint across faces on the working version,
// exactly as the in-core baseline does, but through the PM-octree write
// path: every refinement triggered by balancing is copy-on-write and
// placed by the C0/C1 layout policy. Returns the number of refines.
//
// Violators are collected in batches: one scan finds every leaf with a
// too-coarse face neighbor, all are refined, and the scan repeats until a
// pass finds none (ripple refinement can create new violations one level
// up).
func (t *Tree) Balance() int {
	defer t.span("Balance").End()
	refined := 0
	for {
		violators := t.findViolators()
		if len(violators) == 0 {
			return refined
		}
		for _, code := range violators {
			if t.refineLeafIfPresent(code) {
				refined++
			}
		}
	}
}

// refineLeafIfPresent splits the leaf with exactly the given code,
// returning false if it no longer exists as a leaf (an earlier refine in
// the same batch may have split it).
func (t *Tree) refineLeafIfPresent(code morton.Code) bool {
	nr, ok := t.refineAtWalk(t.cur, code)
	if !ok {
		return false
	}
	t.cur = nr
	t.maybeEvict()
	return true
}

// findViolators scans leaves once and returns the distinct codes of
// too-coarse neighbor leaves, first-seen over leaves in Z-order and their
// outward faces in axis order. The scan is one charged walk collecting the
// leaves' keys; bulk.FaceCovers, the finder bulk.Balance uses, then
// resolves each outward face neighbor to its covering leaf by binary
// search over them.
//
// Each probe is charged as the FindLeaf descent it replaces: the root-to-
// leaf path toward the neighbor reads min(level(cover), level(neighbor))+1
// octants, each from the device its ref lives on, and touches each one for
// the LFA counts. The walk records, per leaf, which root-path levels are
// DRAM refs and which levels shallower than L_sub are hot, so those
// charges and touches are added in bulk once every probe is resolved. No
// refine runs before the pass returns, so the batching is exact.
func (t *Tree) findViolators() []morton.Code {
	var keys []uint64
	var dramPath, hotPath []uint32 // bit d: the level-d root-path node
	var dram, hot uint32
	t.ForEachNode(func(r Ref, o *Octant) bool {
		l := o.Code.Level()
		dram, hot = dram&(1<<l-1), hot&(1<<l-1)
		if r.InDRAM() {
			dram |= 1 << l
		}
		if l < t.lsub && t.hot[o.Code] {
			hot |= 1 << l
		}
		if o.IsLeaf() {
			keys = append(keys, o.Code.Key())
			dramPath, hotPath = append(dramPath, dram), append(hotPath, hot)
		}
		return true
	})
	seen := make([]bool, len(keys))
	var out []morton.Code
	var dramReads, reads int
	for s, j := range bulk.FaceCovers(keys, nil) {
		if j < 0 {
			continue
		}
		li, lj := int(keys[s/3]&63), int(keys[j]&63)
		n := min(li, lj) + 1
		reads += n
		dramReads += bits.OnesCount32(dramPath[j] & (1<<n - 1))
		cover := morton.FromKey(keys[j])
		if n > int(t.lsub) {
			t.access[cover.AncestorAt(t.lsub)] += uint64(n - int(t.lsub))
		}
		for h := hotPath[j] & (1<<min(n, int(t.lsub)) - 1); h != 0; h &= h - 1 {
			t.access[cover.AncestorAt(uint8(bits.TrailingZeros32(h)))]++
		}
		if li-lj > 1 && !seen[j] {
			seen[j] = true
			out = append(out, cover)
		}
	}
	t.cfg.DRAMDevice.ChargeReadN(dramReads, RecordSize)
	t.cfg.NVBMDevice.ChargeReadN(reads-dramReads, RecordSize)
	return out
}

// IsBalanced reports whether the working version satisfies the 2:1 face
// constraint.
func (t *Tree) IsBalanced() bool {
	return len(t.findViolators()) == 0
}
