package main

import (
	"math/rand"
	"runtime"
	"time"

	"pmoctree/internal/core"
	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/pmem"
	"pmoctree/internal/serve"
)

// Micro-timings: each times batches of calls into one layer's entry
// point on the workload's final state and reports the median batch's
// per-call time.
const (
	microBatches = 15
	microBatch   = 2048
)

// perCall runs batch, which makes n calls, microBatches times and returns
// the median batch time divided by n, in nanoseconds.
func perCall(n int, batch func()) float64 {
	runtime.GC()
	per := make([]float64, microBatches)
	for b := range per {
		t0 := time.Now()
		batch()
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// microTimings records the layer entry-point timings on the final state:
// nvbm.Device.ReadAt, pmem.Arena.Read, core.Tree.FindLeaf, the serve
// leaf-index build, and serve.Snapshot.Point and RegionIn.
func microTimings(tree *core.Tree, nv *nvbm.Device, seed int64, rep *report) {
	r := rand.New(rand.NewSource(seed + 7))

	// 64 B device reads at random line-aligned offsets of the image.
	lines := nv.Size() / 64
	offs := make([]int, microBatch)
	for i := range offs {
		offs[i] = 64 * r.Intn(lines)
	}
	var buf [64]byte
	rep.set("nvbm.read_ns", perCall(microBatch, func() {
		for _, off := range offs {
			nv.ReadAt(off, buf[:])
		}
	}))

	// Octant-record reads of the committed version's NVBM octants through
	// an arena opened on a clone of the image.
	var handles []pmem.Handle
	tree.ForEachCommittedNode(func(ref core.Ref, _ *core.Octant) bool {
		if !ref.InDRAM() {
			handles = append(handles, ref.Handle())
		}
		return true
	})
	arena, err := pmem.OpenArena(nv.Clone())
	if err != nil || len(handles) == 0 {
		rep.fail("opening the final image's arena: %v (%d NVBM octants)", err, len(handles))
		return
	}
	hs := make([]pmem.Handle, microBatch)
	for i := range hs {
		hs[i] = handles[r.Intn(len(handles))]
	}
	rec := make([]byte, core.RecordSize)
	rep.set("pmem.arena_read_ns", perCall(microBatch, func() {
		for _, h := range hs {
			arena.Read(h, rec)
		}
	}))

	// Root-to-leaf descents to random finest-level cells.
	const cells = 1 << morton.MaxLevel
	codes := make([]morton.Code, microBatch)
	for i := range codes {
		codes[i] = morton.Encode(uint32(r.Intn(cells)), uint32(r.Intn(cells)), uint32(r.Intn(cells)), morton.MaxLevel)
	}
	rep.set("core.findleaf_ns", perCall(microBatch, func() {
		for _, c := range codes {
			tree.FindLeaf(c)
		}
	}))

	serveTimings(tree, r, rep)
}

// serveTimings times the first query on a version freshly published into
// a new catalog (the leaf-index build every published version pays once),
// then point and region queries on a built index.
func serveTimings(tree *core.Tree, r *rand.Rand, rep *report) {
	var (
		cat    *serve.Catalog
		s      *serve.Snapshot
		err    error
		builds = make([]float64, 5)
	)
	for i := range builds {
		if s != nil {
			s.Close()
			cat.Close()
		}
		cat = serve.NewCatalog(tree, serve.Config{Keep: 1})
		if s, err = cat.Publish(); err != nil {
			rep.fail("publishing into a fresh catalog: %v", err)
			cat.Close()
			return
		}
		t0 := time.Now()
		_, err = s.Point(0.5, 0.5, 0.5)
		builds[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			rep.fail("first point query: %v", err)
		}
	}
	defer cat.Close()
	defer s.Close()
	rep.set("serve.index_build_ms", median(builds))

	pts := make([][3]float64, microBatch)
	for j := range pts {
		pts[j] = [3]float64{r.Float64(), r.Float64(), r.Float64()}
	}
	rep.set("serve.snapshot_point_ns", perCall(microBatch, func() {
		for _, p := range pts {
			s.Point(p[0], p[1], p[2])
		}
	}))
	const regions = 256
	boxes := make([]serve.Box, regions)
	for j := range boxes {
		boxes[j] = randBox(r, 0.02, 0.05)
	}
	rep.set("serve.snapshot_region_us", perCall(regions, func() {
		for _, b := range boxes {
			s.RegionIn(b, serve.FullKeyRange())
		}
	})/1e3)
}
