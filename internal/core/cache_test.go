package core

import (
	"fmt"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
)

// bypassRead decodes the octant at r straight from the arena, ignoring
// the decoded cache — the ground truth a cached readOct must match.
func bypassRead(tr *Tree, r Ref) Octant {
	var buf [RecordSize]byte
	tr.arenaFor(r).Read(r.Handle(), buf[:])
	var o Octant
	o.decode(buf[:])
	return o
}

// verifyCacheCoherent walks the working version and checks that every
// octant readOct returns (possibly a cache hit) is bit-identical to the
// record on the device.
func verifyCacheCoherent(t *testing.T, tr *Tree, label string) {
	t.Helper()
	tr.ForEachNode(func(r Ref, o *Octant) bool {
		if want := bypassRead(tr, r); *o != want {
			t.Fatalf("%s: cached octant at %v diverged from device:\ncached: %+v\ndevice: %+v",
				label, r, *o, want)
		}
		return true
	})
	if !tr.committed.IsNil() {
		// The committed version too: its refs are disjoint from the cache's
		// view only when coherence failed.
		var walk func(r Ref)
		walk = func(r Ref) {
			want := bypassRead(tr, r)
			if got := tr.readOct(r); got != want {
				t.Fatalf("%s: committed octant at %v diverged from device:\ncached: %+v\ndevice: %+v",
					label, r, got, want)
			}
			for _, c := range want.Children {
				if !c.IsNil() {
					walk(c)
				}
			}
		}
		walk(tr.committed)
	}
}

// TestCacheCoherence interleaves every mutation class the octree has —
// refinement, data sweeps (walk-driven and index-driven), coarsening,
// balancing, Persist's merge+commit+GC, on-demand GC, Compact, and
// crash restore — and asserts after each that cached reads equal a
// direct device read+decode, with the charge-preserving default and
// with CacheCommittedReads skipping device traffic.
func TestCacheCoherence(t *testing.T) {
	for _, cachedReads := range []bool{false, true} {
		t.Run(fmt.Sprintf("CacheCommittedReads=%v", cachedReads), func(t *testing.T) {
			dev := nvbm.New(nvbm.NVBM, 0)
			cfg := Config{
				NVBMDevice:          dev,
				DRAMDevice:          nvbm.New(nvbm.DRAM, 0),
				DRAMBudgetOctants:   256,
				RetainVersions:      1,
				CacheCommittedReads: cachedReads,
			}
			tr := Create(cfg)

			steps := []struct {
				name string
				run  func()
			}{
				{"refine", func() { tr.RefineWhere(sphere(0.4, 0.4, 0.4, 0.3, 0.2), 3) }},
				{"update", func() {
					tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
						d[0] = float64(c) * 0.5
						return true
					})
				}},
				{"updateTiled", func() {
					sweepTiled(tr, func(c morton.Code, d *[DataWords]float64) bool {
						d[1] = d[0] + 1
						return true
					})
				}},
				{"persist", func() { tr.Persist() }},
				{"refineDeeper", func() { tr.RefineWhere(sphere(0.6, 0.6, 0.6, 0.25, 0.15), 4) }},
				{"balance", func() { tr.Balance() }},
				{"coarsen", func() {
					tr.CoarsenWhere(func(c morton.Code) bool { return c.Level() >= 3 })
				}},
				{"gc", func() { tr.GC() }},
				{"persistAgain", func() { tr.Persist() }},
				{"tiledAfterPersist", func() {
					sweepTiled(tr, func(c morton.Code, d *[DataWords]float64) bool {
						d[2] = d[1] * 2
						return true
					})
				}},
				{"compact", func() {
					tr.Persist()
					if _, err := tr.Compact(); err != nil {
						t.Fatalf("compact: %v", err)
					}
				}},
			}
			for _, s := range steps {
				s.run()
				verifyCacheCoherent(t, tr, s.name)
				if err := tr.Validate(); err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
			}

			fp := tr.FastPath()
			if fp.CacheHits == 0 || fp.CacheMisses == 0 {
				t.Errorf("fast path never exercised: %+v", fp)
			}
			if cachedReads && fp.CacheSkippedReads == 0 {
				t.Error("CacheCommittedReads on but no device read was ever skipped")
			}
			if !cachedReads && fp.CacheSkippedReads != 0 {
				t.Errorf("default config skipped %d device reads; charge preservation broken",
					fp.CacheSkippedReads)
			}

			// Crash restore: reopen from the device and verify the restored
			// tree's cached reads against its media.
			before := leafSet(tr, tr.CommittedRoot())
			re, _, err := RestoreWithReport(cfg)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			verifyCacheCoherent(t, re, "restore")
			sameLeaves(t, leafSet(re, re.CommittedRoot()), before, "restore")

			// And keep simulating on the restored tree.
			re.RefineWhere(sphere(0.5, 0.5, 0.5, 0.2, 0.2), 3)
			re.Persist()
			verifyCacheCoherent(t, re, "restore+persist")
		})
	}
}

// TestCacheChargePreservation pins the tentpole's golden-compatibility
// claim mechanically: the same workload on two fresh device pairs — one
// run before any cache could exist would be ideal, but the cache cannot
// be turned off, so instead the default config's modeled device counters
// must be a pure function of the workload, and CacheCommittedReads must
// strictly reduce reads without changing a single write.
func TestCacheChargePreservation(t *testing.T) {
	run := func(cachedReads bool) (nvbm.Stats, map[morton.Code][DataWords]float64) {
		tr := Create(Config{
			NVBMDevice:          nvbm.New(nvbm.NVBM, 0),
			DRAMDevice:          nvbm.New(nvbm.DRAM, 0),
			DRAMBudgetOctants:   256,
			CacheCommittedReads: cachedReads,
		})
		for s := 0; s < 4; s++ {
			off := 0.3 + 0.1*float64(s)
			tr.RefineWhere(sphere(off, off, off, 0.25, 0.15), 4)
			tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
				d[0] = off
				return true
			})
			tr.CoarsenWhere(func(c morton.Code) bool { return c.Level() >= 4 })
			tr.Balance()
			tr.Persist()
		}
		return tr.NVBMDevice().Stats(), leafSet(tr, tr.CommittedRoot())
	}

	plainStats, plainLeaves := run(false)
	cachedStats, cachedLeaves := run(true)
	sameLeaves(t, cachedLeaves, plainLeaves, "CacheCommittedReads")
	if cachedStats.Writes != plainStats.Writes || cachedStats.WriteBytes != plainStats.WriteBytes {
		t.Errorf("write traffic changed: cached %+v, plain %+v", cachedStats, plainStats)
	}
	if cachedStats.Reads >= plainStats.Reads {
		t.Errorf("CacheCommittedReads elided nothing: cached %d reads, plain %d", cachedStats.Reads, plainStats.Reads)
	}
}

// TestLeafSnapshotInvalidation pins the leaf-index contract: reuse while
// the mesh is untouched, rebuild after any mutation, and entries always
// matching a fresh walk.
func TestLeafSnapshotInvalidation(t *testing.T) {
	tr := Create(Config{
		NVBMDevice: nvbm.New(nvbm.NVBM, 0),
		DRAMDevice: nvbm.New(nvbm.DRAM, 0),
	})
	tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.3, 0.2), 3)

	check := func(label string) {
		t.Helper()
		ix := tr.LeafSnapshot()
		var want []Octant
		var refs []Ref
		tr.ForEachNode(func(r Ref, o *Octant) bool {
			if o.IsLeaf() {
				want = append(want, *o)
				refs = append(refs, r)
			}
			return true
		})
		if ix.Len() != len(want) {
			t.Fatalf("%s: index has %d leaves, walk found %d", label, ix.Len(), len(want))
		}
		for i, o := range want {
			if ix.codes[i] != o.Code || ix.refs[i] != refs[i] || ix.Data(i) != o.Data {
				t.Fatalf("%s: entry %d = (%v, %v, %v), walk found (%v, %v, %v)",
					label, i, ix.codes[i], ix.refs[i], ix.Data(i), o.Code, refs[i], o.Data)
			}
		}
	}

	check("initial")
	rebuilds := tr.FastPath().LeafIndexRebuilds
	tr.LeafSnapshot()
	if got := tr.FastPath().LeafIndexRebuilds; got != rebuilds {
		t.Fatalf("untouched mesh rebuilt the index (%d -> %d rebuilds)", rebuilds, got)
	}
	if tr.FastPath().LeafIndexReuses == 0 {
		t.Fatal("no snapshot reuse recorded")
	}

	tr.RefineWhere(sphere(0.3, 0.3, 0.3, 0.2, 0.1), 4)
	check("after refine")
	tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool { d[0] = 1; return true })
	check("after update")
	tr.CoarsenWhere(func(c morton.Code) bool { return c.Level() >= 4 })
	check("after coarsen")
	tr.Persist()
	check("after persist")

	// In-place tiled sweeps keep the index valid. The first sweep after a
	// Persist copy-on-writes every leaf back into the working version
	// (structural change, so the next gather rebuilds); from the second
	// sweep on the writes land in place and must not cost a tree walk.
	sweepTiled(tr, func(c morton.Code, d *[DataWords]float64) bool { d[0] = 2; return true })
	sweepTiled(tr, func(c morton.Code, d *[DataWords]float64) bool { d[0] = 3; return true })
	rebuilds = tr.FastPath().LeafIndexRebuilds
	sweepTiled(tr, func(c morton.Code, d *[DataWords]float64) bool { d[0] = 3.5; return true })
	tr.LeafSnapshot()
	if got := tr.FastPath().LeafIndexRebuilds; got != rebuilds {
		t.Fatalf("in-place tiled sweep invalidated the index (%d -> %d rebuilds)", rebuilds, got)
	}
	check("after tiled sweeps")

	// Tiled sweeps must produce the same fields UpdateLeaves does.
	tr2 := Create(Config{
		NVBMDevice: nvbm.New(nvbm.NVBM, 0),
		DRAMDevice: nvbm.New(nvbm.DRAM, 0),
	})
	tr2.RefineWhere(sphere(0.5, 0.5, 0.5, 0.3, 0.2), 3)
	tr2.RefineWhere(sphere(0.3, 0.3, 0.3, 0.2, 0.1), 4)
	tr2.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool { d[0] = 1; return true })
	tr2.CoarsenWhere(func(c morton.Code) bool { return c.Level() >= 4 })
	tr2.Persist()
	tr2.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool { d[0] = 2; return true })
	tr2.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool { d[0] = 3; return true })
	tr2.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool { d[0] = 3.5; return true })
	sameLeaves(t, leafSet(tr, tr.Root()), leafSet(tr2, tr2.Root()), "tiled vs walk sweeps")
}

// TestConcurrentCommittedWalk runs ForEachCommittedNode from two
// goroutines at once (run with -race): the committed read path is
// documented side-effect-free — per-call buffers, no access accounting,
// no cache fills — so concurrent digests must be safe and identical.
func TestConcurrentCommittedWalk(t *testing.T) {
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

	digest := func() uint64 {
		var h uint64 = 14695981039346656037
		tr.ForEachCommittedNode(func(r Ref, o *Octant) bool {
			h ^= uint64(o.Code)
			h *= 1099511628211
			h ^= f64bits(o.Data[0])
			h *= 1099511628211
			return true
		})
		return h
	}

	want := digest()
	results := make(chan uint64, 2)
	for g := 0; g < 2; g++ {
		go func() { results <- digest() }()
	}
	for g := 0; g < 2; g++ {
		if got := <-results; got != want {
			t.Fatalf("concurrent committed walk digest %x, want %x", got, want)
		}
	}
}
