package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pmoctree/internal/bulk"
	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
)

// descentViolators is the violator finder Balance used before the flat
// pass: the same charged walk, then one FindLeaf root-to-leaf descent per
// outward face probe. The flat pass must find the same violators in the
// same order and leave the same device charges and access counts.
func descentViolators(tr *Tree) []morton.Code {
	var leaves []morton.Code
	tr.ForEachNode(func(_ Ref, o *Octant) bool {
		if o.IsLeaf() {
			leaves = append(leaves, o.Code)
		}
		return true
	})
	seen := map[morton.Code]bool{}
	var out []morton.Code
	var scratch [6]morton.Code
	for _, c := range leaves {
		if c.Level() < 2 {
			continue
		}
		for _, nb := range c.FaceNeighbors(scratch[:0]) {
			if nb.Parent() == c.Parent() {
				continue
			}
			_, leaf := tr.FindLeaf(nb)
			if leaf.IsLeaf() && int(c.Level())-int(leaf.Code.Level()) > 1 && !seen[leaf.Code] {
				seen[leaf.Code] = true
				out = append(out, leaf.Code)
			}
		}
	}
	return out
}

// passCharges runs one violator pass and returns its violators, both
// devices' charges and the access counts it added.
func passCharges(tr *Tree, find func(*Tree) []morton.Code) ([]morton.Code, nvbm.Stats, nvbm.Stats, map[morton.Code]uint64) {
	nv0, dr0 := tr.NVBMDevice().Stats(), tr.DRAMDevice().Stats()
	before := make(map[morton.Code]uint64, len(tr.access))
	for c, n := range tr.access {
		before[c] = n
	}
	v := find(tr)
	added := map[morton.Code]uint64{}
	for c, n := range tr.access {
		if n != before[c] {
			added[c] = n - before[c]
		}
	}
	return v, tr.NVBMDevice().Stats().Sub(nv0), tr.DRAMDevice().Stats().Sub(dr0), added
}

// TestFlatBalanceChargesLikeDescents runs twin trees through every pass of
// a Balance — one with the flat finder, one with the FindLeaf descents —
// and requires identical violators, per-device charges and access counts
// each pass. The trees span both devices (a C0 budget with a hot set) and
// carry extra hot nodes above L_sub, so every kind of touch is exercised.
func TestFlatBalanceChargesLikeDescents(t *testing.T) {
	build := func() *Tree {
		tr := Create(Config{
			NVBMDevice:        nvbm.New(nvbm.NVBM, 0),
			DRAMDevice:        nvbm.New(nvbm.DRAM, 0),
			DRAMBudgetOctants: 256,
		})
		band := sphere(0.45, 0.5, 0.55, 0.3, 0.05)
		tr.SetFeatures(func(c morton.Code, _ [DataWords]float64) bool { return band(c) })
		tr.RefineWhere(band, 4)
		tr.Balance()
		tr.Persist()
		tr.RefineWhere(sphere(0.3, 0.3, 0.3, 0.1, 0.02), 7)
		if tr.lsub < 2 {
			t.Fatalf("L_sub %d leaves no levels above it to mark hot", tr.lsub)
		}
		tr.hot[morton.Root] = true
		tr.hot[morton.Root.Child(0)] = true
		return tr
	}
	flat, desc := build(), build()
	if flat.DRAMDevice().Stats().Reads == 0 {
		t.Fatal("no octant lives in DRAM; the device split is untested")
	}
	passes := 0
	for {
		v, nv, dr, acc := passCharges(flat, (*Tree).findViolators)
		wv, wnv, wdr, wacc := passCharges(desc, descentViolators)
		if !reflect.DeepEqual(v, wv) {
			t.Fatalf("pass %d: violators %v, descents found %v", passes, v, wv)
		}
		if nv != wnv || dr != wdr {
			t.Fatalf("pass %d: charges NVBM %+v DRAM %+v, descents NVBM %+v DRAM %+v", passes, nv, dr, wnv, wdr)
		}
		if dr.Reads == 0 {
			t.Errorf("pass %d charged no DRAM reads", passes)
		}
		if !reflect.DeepEqual(acc, wacc) {
			t.Fatalf("pass %d: access counts %v, descents %v", passes, acc, wacc)
		}
		if acc[morton.Root] == 0 || acc[morton.Root.Child(0)] == 0 {
			t.Errorf("pass %d: hot nodes above L_sub never touched: %v", passes, acc)
		}
		if len(v) == 0 {
			break
		}
		for _, x := range []*Tree{flat, desc} {
			for _, c := range v {
				x.refineLeafIfPresent(c)
			}
		}
		passes++
	}
	if passes < 2 {
		t.Fatalf("balance took %d refining passes; want a ripple", passes)
	}
	if err := flat.Validate(); err != nil {
		t.Fatal(err)
	}
}

// leafAt maps each leaf to its Z-order position.
func leafAt(leaves []morton.Code) map[morton.Code]int {
	at := make(map[morton.Code]int, len(leaves))
	for i, c := range leaves {
		at[c] = i
	}
	return at
}

// coverOf is the brute-force cover: the leaf holding the first finest cell
// of code, found by looking its ancestors up, or code's first descendant
// leaf when its region is more refined.
func coverOf(at map[morton.Code]int, code morton.Code) int {
	for l := int(code.Level()); l >= 0; l-- {
		if i, ok := at[code.AncestorAt(uint8(l))]; ok {
			return i
		}
	}
	for c := code; c.Level() < morton.MaxLevel; {
		c = c.Child(0)
		if i, ok := at[c]; ok {
			return i
		}
	}
	return -1
}

func leafKeys(leaves []morton.Code) []uint64 {
	keys := make([]uint64, len(leaves))
	for i, c := range leaves {
		keys[i] = c.Key()
	}
	return keys
}

// TestFaceCoversCornerOnlyNeighbor pins the key the flat finder searches
// with. Leaf o (level 3, top of root child 0) probes across z = 0.5 into a
// region refined one level deeper. The leaf before that region in Z-order
// is the level-1 root child 3, which meets the probe at a single corner
// point: searching with the neighbour's bare Key would return it and
// report a violator on a balanced tree. The probe also charges the
// descent's level(o)+1 reads, not the deeper cover's.
func TestFaceCoversCornerOnlyNeighbor(t *testing.T) {
	tr := Create(Config{})
	tr.RefineAt(morton.Root)
	tr.RefineAt(morton.Root.Child(0))
	tr.RefineAt(morton.Root.Child(0).Child(4))
	p := morton.Root.Child(4)
	tr.RefineAt(p)
	tr.RefineAt(p.Child(0))
	nb := p.Child(0).Child(0)
	tr.RefineAt(nb)

	leaves := tr.LeafCodes()
	keys := leafKeys(leaves)
	o := morton.Encode(0, 0, 3, 3)
	i := sort.Search(len(keys), func(k int) bool { return keys[k] >= o.Key() })
	if leaves[i] != o {
		t.Fatalf("leaf %v missing", o)
	}
	j := bulk.FaceCovers(keys, nil)[3*i+2]
	if j < 0 || leaves[j] != nb.Child(0) {
		t.Fatalf("cover of %v's +z face = %d, want %v", o, j, nb.Child(0))
	}
	bare := sort.Search(len(keys), func(k int) bool { return keys[k] > nb.Key() }) - 1
	if leaves[bare] != morton.Root.Child(3) {
		t.Fatalf("bare-key search found %v; the case no longer exercises the corner-only leaf", leaves[bare])
	}

	if !tr.IsBalanced() {
		t.Fatal("balanced tree reported violators")
	}
	// Charges: the walk reads every node once; each probe reads
	// min(level(o), level(cover))+1 octants. o's probe is the only one
	// whose cover is deeper than the prober.
	nodes, want, deeper := 0, 0, 0
	tr.ForEachNode(func(Ref, *Octant) bool { nodes++; return true })
	at := leafAt(leaves)
	var scratch [6]morton.Code
	for _, c := range leaves {
		for _, n := range c.FaceNeighbors(scratch[:0]) {
			if n.Parent() == c.Parent() {
				continue
			}
			cl := leaves[coverOf(at, n)].Level()
			if cl > c.Level() {
				deeper++
			}
			want += int(min(c.Level(), cl)) + 1
		}
	}
	if deeper != 1 {
		t.Fatalf("%d probes into deeper regions, want 1", deeper)
	}
	r0 := tr.NVBMDevice().Stats().Reads + tr.DRAMDevice().Stats().Reads
	tr.findViolators()
	got := tr.NVBMDevice().Stats().Reads + tr.DRAMDevice().Stats().Reads - r0
	if int(got) != nodes+want {
		t.Fatalf("pass charged %d reads, want %d walk + %d probe", got, nodes, want)
	}
}

// leavesWhere refines the root wherever split holds, down to maxLevel.
func leavesWhere(maxLevel uint8, split func(morton.Code) bool) []morton.Code {
	var out []morton.Code
	var walk func(c morton.Code)
	walk = func(c morton.Code) {
		if c.Level() < maxLevel && split(c) {
			for k := 0; k < 8; k++ {
				walk(c.Child(k))
			}
			return
		}
		out = append(out, c)
	}
	walk(morton.Root)
	return out
}

// randomLeaves refines the root at random, seeded, down to maxLevel.
func randomLeaves(rng *rand.Rand, maxLevel uint8) []morton.Code {
	return leavesWhere(maxLevel, func(c morton.Code) bool { return c.Level() == 0 || rng.Intn(3) == 0 })
}

// TestFaceCoversMatchesBruteForce checks every slot against the probes the
// descents made: each face neighbour outside the leaf's parent, resolved
// to the leaf holding its first cell by ancestor lookup; slots with no
// such neighbour, on the domain boundary, must hold -1. The inputs are the
// root alone, uniform grids (where every outward face of an edge leaf is
// on the boundary) and seeded random leaf sets.
func TestFaceCoversMatchesBruteForce(t *testing.T) {
	var inputs [][]morton.Code
	for l := uint8(0); l <= 3; l++ {
		inputs = append(inputs, leavesWhere(l, func(morton.Code) bool { return true }))
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		inputs = append(inputs, randomLeaves(rng, 6))
	}
	boundary := 0
	var scratch [6]morton.Code
	for n, leaves := range inputs {
		at := leafAt(leaves)
		want := make([]int32, 3*len(leaves))
		for i, c := range leaves {
			want[3*i], want[3*i+1], want[3*i+2] = -1, -1, -1
			_, y, z, _ := c.Decode()
			for _, nb := range c.FaceNeighbors(scratch[:0]) {
				if nb.Parent() == c.Parent() {
					continue
				}
				_, ny, nz, _ := nb.Decode()
				a := 0
				if ny != y {
					a = 1
				} else if nz != z {
					a = 2
				}
				want[3*i+a] = int32(coverOf(at, nb))
			}
		}
		got := bulk.FaceCovers(leafKeys(leaves), nil)
		for s := range want {
			if got[s] != want[s] {
				t.Fatalf("input %d: %v axis %d: cover %d, want %d", n, leaves[s/3], s%3, got[s], want[s])
			}
			if want[s] < 0 {
				boundary++
			}
		}
	}
	if boundary == 0 {
		t.Fatal("no slot lay on the domain boundary")
	}
}

// TestBalanceRipple: a chain refined to level 6 hugging the centre planes
// sits against level-1 leaves, so each pass's refines create violations
// one level up and Balance needs several passes; every pass matches the
// descent finder, and the fixed point is bulk.Balance's.
func TestBalanceRipple(t *testing.T) {
	chain := func(c morton.Code) bool {
		x, y, z, l := c.Decode()
		p := uint32(float64(uint64(1)<<l) * 0.49)
		return x == p && y == p && z == p
	}
	flat, desc := Create(Config{}), Create(Config{})
	flat.RefineWhere(chain, 6)
	desc.RefineWhere(chain, 6)
	in := flat.LeafCodes()
	passes := 0
	for {
		v := flat.findViolators()
		if w := descentViolators(desc); !reflect.DeepEqual(v, w) {
			t.Fatalf("pass %d: violators %v, descents %v", passes, v, w)
		}
		if len(v) == 0 {
			break
		}
		for _, c := range v {
			flat.refineLeafIfPresent(c)
			desc.refineLeafIfPresent(c)
		}
		passes++
	}
	if passes < 3 {
		t.Fatalf("ripple took %d passes, want >= 3", passes)
	}
	want, err := bulk.Balance(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := flat.LeafCodes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("core balanced to %d leaves, bulk to %d", len(got), len(want))
	}
}

// TestBalanceMatchesBulkRandom: on seeded random leaf sets, core.Tree
// Balance and bulk.Balance reach the same leaf set.
func TestBalanceMatchesBulkRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		leaves := randomLeaves(rng, 6)
		tr := Create(Config{})
		if _, err := tr.ConstructFromCodes(leaves, nil, nil, false); err != nil {
			t.Fatal(err)
		}
		tr.Balance()
		want, err := bulk.Balance(leaves, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.LeafCodes(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: core balanced %d leaves to %d, bulk to %d", trial, len(leaves), len(got), len(want))
		}
		if !tr.IsBalanced() {
			t.Fatalf("trial %d: core result unbalanced", trial)
		}
	}
}
