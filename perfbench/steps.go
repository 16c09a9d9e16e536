package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"pmoctree/internal/core"
	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/parallel"
	"pmoctree/internal/pmem"
	"pmoctree/internal/sim"
	"pmoctree/internal/telemetry"
	"pmoctree/internal/tile"
)

// dramBudget is the C0 capacity, in octants, cmd/droplet runs with.
const dramBudget = 2048

// extraSetups is how many set-ups a run times beyond the one each episode
// (or the live writer) starts from, so setup_s is a median of several.
const extraSetups = 20

// setUp builds the workload's step 1 on a fresh PM-octree by bulk
// construction (the bulk layer) and commits it.
func setUp(w workload, f sim.Field, pool *parallel.Pool) (*core.Tree, *nvbm.Device, time.Duration, error) {
	t0 := time.Now()
	nv := nvbm.New(nvbm.NVBM, 0)
	tree := core.Create(core.Config{
		NVBMDevice:        nv,
		DRAMBudgetOctants: dramBudget,
		PipelineDepth:     w.Pipeline,
		GroupCommit:       w.GroupCommit,
	})
	tree.SetFeatures(sim.FeatureOf(f, 1))
	if _, ok := sim.ConstructInitial(tree, f, 1, w.MaxLevel, pool); !ok {
		tree.Close()
		return nil, nil, 0, fmt.Errorf("bulk construction of step 1 declined")
	}
	tree.SetFeatures(sim.FeatureOf(f, 2))
	tree.Persist()
	tree.Flush()
	return tree, nv, time.Since(t0), nil
}

// stepper advances one tree through timed steps. A traced step goes
// through the timing wrapper; an untraced one calls the tree directly.
type stepper struct {
	w      workload
	f      sim.Field
	pool   *parallel.Pool
	tree   *core.Tree
	nv     *nvbm.Device
	tt     *tracedTree
	chunks *telemetry.Histogram // the pool's per-chunk busy time (traced runs)
	rep    *report

	untracedMs, tracedMs []float64
	// Traced-step counters, summed over traced steps.
	splits, leaves, modeledNs, poolBusyNs, poolCapNs float64
	fp0                                              core.FastPathStats
	op0                                              core.OpStats
	pipe0                                            core.PipelineStats
	overlap                                          float64
}

func newStepper(w workload, f sim.Field, pool *parallel.Pool, tree *core.Tree, nv *nvbm.Device, rep *report) *stepper {
	st := &stepper{w: w, f: f, pool: pool, tree: tree, nv: nv, rep: rep}
	st.tt = &tracedTree{Tree: tree, nv: nv}
	st.fp0, st.op0, st.pipe0 = tree.FastPath(), tree.Stats(), tree.PipelineStats()
	return st
}

// step runs step s — StepFieldPool, SetFeatures for the next step, then
// Persist — and returns its wall time on the step clock. On a traced run's
// last step the version overlap is measured between the solve and the
// persist, with the step clock paused.
func (st *stepper) step(s int, traced, measureOverlap bool) time.Duration {
	var m sim.Mesh = st.tree
	var nv0 nvbm.Stats
	var busy0 uint64
	if traced {
		m = st.tt
		st.tt.reset()
		nv0 = st.nv.Stats()
		busy0 = st.chunks.Stats().Sum
	}
	t0 := time.Now()
	sc := sim.StepFieldPool(m, st.f, s, st.w.MaxLevel, st.pool)
	var paused time.Duration
	if measureOverlap {
		p0 := time.Now()
		st.overlap = st.tree.VersionStats().OverlapRatio
		paused = time.Since(p0)
	}
	st.tree.SetFeatures(sim.FeatureOf(st.f, s+1))
	if traced {
		done := st.tt.timed(rowPersist)
		st.tree.Persist()
		done()
	} else {
		st.tree.Persist()
	}
	d := time.Since(t0) - paused
	ms := float64(d.Nanoseconds()) / 1e6
	if !traced {
		st.untracedMs = append(st.untracedMs, ms)
		return d
	}
	st.tracedMs = append(st.tracedMs, ms)
	nvStep := st.nv.Stats().Sub(nv0)
	st.tt.fold(st.rep, d, nvStep)
	st.splits += float64(sc.Balanced)
	st.leaves += float64(sc.Leaves)
	st.modeledNs += float64(nvStep.ModeledNs)
	st.poolBusyNs += float64(st.chunks.Stats().Sum - busy0)
	st.poolCapNs += float64(d.Nanoseconds()) * float64(st.pool.Workers())
	return d
}

// layerRatios records the traced run's per-step counters and
// useful-outcome ratios, over the stepper's whole episode.
func (st *stepper) layerRatios() {
	rep := st.rep
	n := float64(len(st.tracedMs))
	fp, op, ps := st.tree.FastPath(), st.tree.Stats(), st.tree.PipelineStats()
	d := func(a, b uint64) float64 { return float64(a - b) }
	rep.set("core.balance.split_frac", ratio(st.splits, st.leaves))
	rep.set("nvbm.modeled_ms_per_step", ratio(st.modeledNs, n)/1e6)
	rep.set("parallel.utilization", ratio(st.poolBusyNs, st.poolCapNs))
	hits, misses := d(fp.CacheHits, st.fp0.CacheHits), d(fp.CacheMisses, st.fp0.CacheMisses)
	rep.set("core.cache.hit_frac", ratio(hits, hits+misses))
	reuse, rebuild := d(fp.LeafIndexReuses, st.fp0.LeafIndexReuses), d(fp.LeafIndexRebuilds, st.fp0.LeafIndexRebuilds)
	rep.set("core.leafindex.reuse_frac", ratio(reuse, reuse+rebuild))
	treuse, trebuild := d(fp.TileReuses, st.fp0.TileReuses), d(fp.TileRebuilds, st.fp0.TileRebuilds)
	rep.set("core.tile.reuse_frac", ratio(treuse, treuse+trebuild))
	// Copies and GC are counted over every step of the episode (traced or
	// not), so they are divided by all the steps taken.
	all := float64(len(st.tracedMs) + len(st.untracedMs))
	rep.set("core.cow_copies_per_step", ratio(float64(op.Copies-st.op0.Copies), all))
	rep.set("core.gc_freed_per_step", ratio(float64(op.GCFreed-st.op0.GCFreed), all))
	rep.set("core.pipeline.stalls_per_step", ratio(d(ps.Stalls, st.pipe0.Stalls), all))
	rep.set("core.pipeline.coalesced_frac", ratio(d(ps.Coalesced, st.pipe0.Coalesced), d(ps.Enqueued, st.pipe0.Enqueued)))
	rep.set("core.overlap", st.overlap)
}

// tracedTree is the timing wrapper: it embeds the real tree, so
// sim.StepFieldPool runs the unmodified step code against it, and times
// each call into a layer's entry point. The solve row is the time between
// the gather's return and the scatter's call, where the step sweeps the
// tile store. NVBM traffic is taken around the same calls; under a persist
// pipeline the worker's concurrent writes land in whichever row is open.
type tracedTree struct {
	*core.Tree
	nv *nvbm.Device

	ns        [nRows]time.Duration
	nvd       [nRows]nvbm.Stats
	gatherEnd time.Time
	gatherNV  nvbm.Stats
}

func (t *tracedTree) reset() {
	t.ns = [nRows]time.Duration{}
	t.nvd = [nRows]nvbm.Stats{}
}

// timed opens row and returns the function that closes it.
func (t *tracedTree) timed(row int) func() {
	t0, s0 := time.Now(), t.nv.Stats()
	return func() {
		t.ns[row] += time.Since(t0)
		t.addNV(row, t.nv.Stats().Sub(s0))
	}
}

func (t *tracedTree) addNV(row int, d nvbm.Stats) {
	t.nvd[row].Reads += d.Reads
	t.nvd[row].Writes += d.Writes
}

// fold adds this step's rows to rep. sim.other takes the step clock and
// NVBM traffic no other row covers.
func (t *tracedTree) fold(rep *report, clock time.Duration, nvStep nvbm.Stats) {
	rest, reads, writes := clock, float64(nvStep.Reads), float64(nvStep.Writes)
	for row := 0; row < rowOther; row++ {
		rep.rowNs[row] += float64(t.ns[row].Nanoseconds())
		rep.rowReads[row] += float64(t.nvd[row].Reads)
		rep.rowWrites[row] += float64(t.nvd[row].Writes)
		rest -= t.ns[row]
		reads -= float64(t.nvd[row].Reads)
		writes -= float64(t.nvd[row].Writes)
	}
	rep.clockNs += float64(clock.Nanoseconds())
	rep.rowNs[rowOther] += float64(rest.Nanoseconds())
	rep.rowReads[rowOther] += reads
	rep.rowWrites[rowOther] += writes
	rep.traced++
}

func (t *tracedTree) RefineWhere(pred func(morton.Code) bool, maxLevel uint8) int {
	defer t.timed(rowRefine)()
	return t.Tree.RefineWhere(pred, maxLevel)
}

func (t *tracedTree) CoarsenWhere(pred func(morton.Code) bool) int {
	defer t.timed(rowCoarsen)()
	return t.Tree.CoarsenWhere(pred)
}

func (t *tracedTree) Balance() int {
	defer t.timed(rowBalance)()
	return t.Tree.Balance()
}

func (t *tracedTree) LeafTiles() *tile.Store {
	done := t.timed(rowGather)
	st := t.Tree.LeafTiles()
	done()
	t.gatherEnd, t.gatherNV = time.Now(), t.nv.Stats()
	return st
}

func (t *tracedTree) ScatterLeafTiles(st *tile.Store) int {
	t.ns[rowSolve] += time.Since(t.gatherEnd)
	t.addNV(rowSolve, t.nv.Stats().Sub(t.gatherNV))
	defer t.timed(rowScatter)()
	return t.Tree.ScatterLeafTiles(st)
}

// UpdateLeaves is the solve on a single-worker pool, where the step
// sweeps the tree instead of the tile store.
func (t *tracedTree) UpdateLeaves(fn func(morton.Code, *[sim.DataWords]float64) bool) int {
	defer t.timed(rowSolve)()
	return t.Tree.UpdateLeaves(fn)
}

// runSteps runs a step workload: episodes of set-up, steps 2..LastStep
// and a final Flush, each followed by verified restores of its final
// image and a closed-loop query burst against its final version (with no
// writer beside it), repeated while they fit in the run. The bursts are
// spread over the run so a slow spell on a shared machine hits only part
// of the query measurement.
func runSteps(w workload, o options, rep *report) {
	f := w.field(o.seed)
	pool := parallel.New(runtime.NumCPU())
	reg := telemetry.NewRegistry()
	var qreg *telemetry.Registry
	if o.trace {
		pool.Instrument(reg, "pool")
		qreg = reg
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	burst := budget / 24

	var setups []float64
	for i := 0; i < extraSetups; i++ {
		runtime.GC()
		tree, _, d, err := setUp(w, f, pool)
		if err != nil {
			rep.fail("set-up: %v", err)
			return
		}
		tree.Close()
		setups = append(setups, d.Seconds())
	}

	var (
		runS, flushMs, stepMs []float64
		tracedMs              []float64
		st                    *stepper
		digest                uint64
		recov                 recovery
		tally                 queryTally
		start                 = time.Now()
		lastEp                time.Duration
	)
	for ep := 0; ep == 0 || time.Since(start)+lastEp <= budget; ep++ {
		runtime.GC()
		e0 := time.Now()
		if st != nil {
			st.tree.Close()
		}
		tree, nv, d, err := setUp(w, f, pool)
		if err != nil {
			rep.fail("set-up: %v", err)
			return
		}
		setups = append(setups, d.Seconds())
		st = newStepper(w, f, pool, tree, nv, rep)
		st.chunks = reg.Histogram("pool.chunk_ns")
		t0 := time.Now()
		for s := 2; s <= w.LastStep; s++ {
			// Traced runs trace every other step, alternating the parity
			// per episode, so the untraced steps measure the overhead.
			traced := o.trace && (s+ep)%2 == 0
			st.step(s, traced, o.trace && s == w.LastStep)
			rep.attempted++
		}
		f0 := time.Now()
		tree.Flush()
		flushMs = append(flushMs, float64(time.Since(f0).Nanoseconds())/1e6)
		runS = append(runS, time.Since(t0).Seconds())
		stepMs = append(stepMs, st.untracedMs...)
		tracedMs = append(tracedMs, st.tracedMs...)

		dg, err := finalDigest(tree)
		switch {
		case err != nil:
			rep.fail("episode %d: %v", ep, err)
		case ep > 0 && dg != digest:
			rep.fail("episode %d: final digest %016x differs from episode 0's %016x", ep, dg, digest)
		}
		digest = dg
		recov.measure(nv, dg, 10, o.trace, rep)
		if err := queryBurst(tree, qreg, o.seed*100+int64(ep), burst, &tally, rep); err != nil {
			rep.fail("episode %d: %v", ep, err)
			return
		}
		lastEp = time.Since(e0)
	}
	defer st.tree.Close()
	checkDigest(w, o, digest, rep)
	rep.note("episodes=%d leaves=%d digest=%016x run_s=%.3f", len(runS), st.tree.LeafCount(), digest, runS)

	rep.set("setup_s", median(setups))
	rep.set("run_s", median(runS))
	rep.set("step_ms_p50", median(stepMs))
	rep.set("nvbm_mb", footprintMB(st.nv, rep))
	recov.report(rep)
	if o.trace {
		rep.set("bench.trace_overhead_frac", median(tracedMs)/median(stepMs)-1)
		rep.set("core.flush_ms", median(flushMs))
		st.layerRatios()
		microTimings(st.tree, st.nv, o.seed, rep)
	}

	tally.report(qreg, rep)
}

// queryBurst reads tree's committed version through a fresh serving tier
// for d.
func queryBurst(tree *core.Tree, reg *telemetry.Registry, seed int64, d time.Duration, tally *queryTally, rep *report) error {
	qt, err := newQueryTier(tree, reg)
	if err != nil {
		return fmt.Errorf("query tier: %w", err)
	}
	defer qt.close()
	if err := qt.publish(tree.CommittedStep()); err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	deadline := time.Now().Add(d)
	qt.runClients(seed, runtime.NumCPU(), func() bool { return time.Now().After(deadline) }, tally, rep)
	return nil
}

// finalDigest validates the tree and digests its leaves: FNV-1a over each
// leaf's code and field bits, in Z-order.
func finalDigest(t *core.Tree) (uint64, error) {
	if err := t.Validate(); err != nil {
		return 0, fmt.Errorf("final tree fails Validate: %w", err)
	}
	return leafDigest(t), nil
}

func leafDigest(t *core.Tree) uint64 {
	h := fnv.New64a()
	var buf [8 * (1 + core.DataWords)]byte
	t.ForEachLeaf(func(c morton.Code, data [core.DataWords]float64) bool {
		binary.LittleEndian.PutUint64(buf[0:], uint64(c))
		for i, v := range data {
			binary.LittleEndian.PutUint64(buf[8*(i+1):], math.Float64bits(v))
		}
		h.Write(buf[:])
		return true
	})
	return h.Sum64()
}

// checkDigest compares the final digest with the one workloads.json
// records for the default seed.
func checkDigest(w workload, o options, digest uint64, rep *report) {
	if o.seed != defaultSeed {
		return
	}
	if got := fmt.Sprintf("%016x", digest); got != w.Digest {
		rep.fail("final leaf digest %s, want %s", got, w.Digest)
	}
}

// recovery collects restore timings over clones of final images.
type recovery struct {
	verifiedMs, plainMs []float64
}

// measure restores n clones of nv with VerifyRestore (as pmserve and
// pmrouter do) and, when traced, n without; every restored tree must
// reproduce digest.
func (r *recovery) measure(nv *nvbm.Device, digest uint64, n int, traced bool, rep *report) {
	restore := func(verify bool) float64 {
		clone := nv.Clone()
		// Collect the clone's and earlier restores' garbage first, and keep
		// the collector off while timing: a collection the harness caused
		// is not the restore's cost.
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		t0 := time.Now()
		tree, err := core.Restore(core.Config{NVBMDevice: clone, VerifyRestore: verify})
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		debug.SetGCPercent(gc)
		rep.attempted++
		if err != nil {
			rep.fail("restore (verify=%v): %v", verify, err)
			return ms
		}
		if got := leafDigest(tree); got != digest {
			rep.fail("restore (verify=%v) digest %016x, committed %016x", verify, got, digest)
		}
		tree.Close()
		return ms
	}
	for i := 0; i < n; i++ {
		r.verifiedMs = append(r.verifiedMs, restore(true))
		if traced {
			r.plainMs = append(r.plainMs, restore(false))
		}
	}
}

func (r *recovery) report(rep *report) {
	rep.set("recover_ms", median(r.verifiedMs))
	if len(r.plainMs) > 0 {
		rep.set("core.restore_ms", median(r.plainMs))
	}
}

// footprintMB is the persistent region in use at the end of the run: the
// arena's metadata plus every slot up to its high-water mark, in MB.
func footprintMB(nv *nvbm.Device, rep *report) float64 {
	a, err := pmem.OpenArena(nv)
	if err != nil {
		rep.fail("opening the final image's arena: %v", err)
		return 0
	}
	return float64(a.DataOffset()+int(a.HighWater())*a.Stride()) / 1e6
}
