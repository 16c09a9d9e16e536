package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pmoctree/internal/core"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/parallel"
	"pmoctree/internal/telemetry"
)

// runLive runs the query-live workload: a writer steps the mesh at a
// fixed period, persisting and publishing every step, while closed-loop
// clients query the newest published version through the router. The
// period is the run time divided by the writer's fixed step count, so
// every run publishes the same versions.
func runLive(w workload, o options, rep *report) {
	f := w.field(o.seed)
	pool := parallel.New(runtime.NumCPU())
	reg := telemetry.NewRegistry()
	var qreg *telemetry.Registry
	if o.trace {
		pool.Instrument(reg, "pool")
		qreg = reg
	}

	// Set-up: the step-1 mesh by bulk construction, committed, behind a
	// fresh serving tier with that version published. Timed several times;
	// the last one is kept.
	var (
		setups []float64
		tree   *core.Tree
		nv     *nvbm.Device
		qt     *queryTier
	)
	for i := 0; i <= extraSetups; i++ {
		if tree != nil {
			qt.close()
			tree.Close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if tree, nv, _, err = setUp(w, f, pool); err != nil {
			rep.fail("set-up: %v", err)
			return
		}
		if qt, err = newQueryTier(tree, qreg); err == nil {
			if err = qt.publish(tree.CommittedStep()); err != nil {
				qt.close()
			}
		}
		if err != nil {
			rep.fail("set-up: serving tier: %v", err)
			tree.Close()
			return
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer tree.Close()
	defer qt.close()
	rep.set("setup_s", median(setups))

	st := newStepper(w, f, pool, tree, nv, rep)
	st.chunks = reg.Histogram("pool.chunk_ns")
	steps := w.LastStep - 1
	period := time.Duration(o.seconds * float64(time.Second) / float64(steps))
	var (
		done    atomic.Bool
		runS    float64
		flushMs float64
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		t0 := time.Now()
		for s := 2; s <= w.LastStep; s++ {
			if wait := time.Until(t0.Add(time.Duration(s-2) * period)); wait > 0 {
				time.Sleep(wait)
			}
			st.step(s, o.trace && s%2 == 0, o.trace && s == w.LastStep)
			if err := qt.publish(tree.CommittedStep()); err != nil {
				rep.fail("publishing step %d: %v", s, err)
				return
			}
		}
		f0 := time.Now()
		tree.Flush()
		flushMs = float64(time.Since(f0).Nanoseconds()) / 1e6
		runS = time.Since(t0).Seconds()
	}()
	var tally queryTally
	qt.runClients(o.seed, runtime.NumCPU(), done.Load, &tally, rep)
	wg.Wait()
	tally.report(qreg, rep)
	if len(rep.failures) > 0 {
		return
	}
	rep.attempted += int64(steps)

	digest, err := finalDigest(tree)
	if err != nil {
		rep.fail("%v", err)
		return
	}
	checkDigest(w, o, digest, rep)
	rep.note("writer_steps=%d leaves=%d digest=%016x", steps, tree.LeafCount(), digest)
	var recov recovery
	recov.measure(nv, digest, 60, o.trace, rep)
	recov.report(rep)
	rep.set("run_s", runS)
	rep.set("step_ms_p50", median(st.untracedMs))
	rep.set("nvbm_mb", footprintMB(nv, rep))
	if o.trace {
		rep.set("bench.trace_overhead_frac", median(st.tracedMs)/median(st.untracedMs)-1)
		rep.set("core.flush_ms", flushMs)
		st.layerRatios()
		microTimings(tree, nv, o.seed, rep)
	}
}
