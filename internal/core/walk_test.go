package core

import (
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
)

// walkTree is a persisted tree of several thousand octants whose working
// version shares most octants with the committed one.
func walkTree(t *testing.T) *Tree {
	t.Helper()
	tr := Create(Config{
		NVBMDevice: nvbm.New(nvbm.NVBM, 0),
		DRAMDevice: nvbm.New(nvbm.DRAM, 0),
	})
	tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.3, 0.2), 4)
	tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
		d[0] = float64(c)
		return true
	})
	tr.Persist()
	tr.RefineWhere(sphere(0.3, 0.3, 0.3, 0.1, 0.05), 6)
	if n := tr.NodeCount(); n < 1000 {
		t.Fatalf("walk tree has %d nodes, want at least 1000", n)
	}
	return tr
}

// A walk decodes into one per-call stack, so its allocations do not grow
// with the number of octants it visits.
func TestWalksAllocateO1(t *testing.T) {
	tr := walkTree(t)
	nodes := 0
	count := func(Ref, *Octant) bool { nodes++; return true }
	for _, tc := range []struct {
		name string
		walk func(func(Ref, *Octant) bool)
	}{
		{"ForEachNode", tr.ForEachNode},
		{"ForEachCommittedNode", tr.ForEachCommittedNode},
	} {
		nodes = 0
		tc.walk(count)
		visited := nodes
		if n := testing.AllocsPerRun(5, func() { tc.walk(count) }); n > 2 {
			t.Errorf("%s over %d nodes allocates %v times, want O(1)", tc.name, visited, n)
		}
	}
}

// A walk started from another walk's callback must not disturb the outer
// walk: both see exactly the refs and octants of a flat walk.
func TestNestedWalkMatchesFlat(t *testing.T) {
	tr := walkTree(t)
	type visit struct {
		r Ref
		o Octant
	}
	collect := func(out *[]visit) func(Ref, *Octant) bool {
		return func(r Ref, o *Octant) bool {
			*out = append(*out, visit{r, *o})
			return true
		}
	}
	var flat []visit
	tr.ForEachNode(collect(&flat))

	var outer []visit
	inner := 0
	tr.ForEachNode(func(r Ref, o *Octant) bool {
		// Nest at interior octants of every level, so the inner walk
		// reuses every depth the outer walk still holds.
		if !o.IsLeaf() && len(outer)%97 == 0 {
			var got []visit
			tr.ForEachNode(collect(&got))
			if len(got) != len(flat) {
				t.Fatalf("nested walk visited %d octants, flat %d", len(got), len(flat))
			}
			for i := range got {
				if got[i] != flat[i] {
					t.Fatalf("nested walk visit %d = %+v, flat %+v", i, got[i], flat[i])
				}
			}
			inner++
		}
		outer = append(outer, visit{r, *o})
		return true
	})
	if inner == 0 {
		t.Fatal("no nested walk ran")
	}
	if len(outer) != len(flat) {
		t.Fatalf("outer walk visited %d octants, flat %d", len(outer), len(flat))
	}
	for i := range outer {
		if outer[i] != flat[i] {
			t.Fatalf("outer walk visit %d = %+v, flat %+v", i, outer[i], flat[i])
		}
	}
}
