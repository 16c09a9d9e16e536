package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"pmoctree/internal/core"
	"pmoctree/internal/router"
	"pmoctree/internal/serve"
	"pmoctree/internal/telemetry"
)

// The query mix: 80% point lookups, 15% region queries, 5% aggregates.
const (
	kindPoint = iota
	kindRegion
	kindAgg
)

// A client re-checks a seeded sample of its answers against a direct
// Snapshot call at the served step: one point lookup in verifyEvery, and
// one region or aggregate in four, since those are the queries whose
// answers the router merges from both shards.
const verifyEvery = 32

// catalogKeep is how many published versions the query catalog pins.
// Four is deep enough that a version resolved as latest is never retired
// before the router's shard calls acquire it, so no answer degrades.
const catalogKeep = 4

type query struct {
	kind    int
	x, y, z float64
	box     serve.Box
	field   int
	verify  bool
}

// randBox returns a cube with half-side in [lo, hi) centred uniformly,
// clipped to the unit cube.
func randBox(r *rand.Rand, lo, hi float64) serve.Box {
	h := lo + (hi-lo)*r.Float64()
	var b serve.Box
	for d := 0; d < 3; d++ {
		c := r.Float64()
		b.Min[d] = math.Max(0, c-h)
		b.Max[d] = math.Min(1, c+h)
	}
	return b
}

// genQueries draws n queries of the mix from r.
func genQueries(r *rand.Rand, n int) []query {
	qs := make([]query, n)
	for i := range qs {
		q := &qs[i]
		switch p := r.Float64(); {
		case p < 0.80:
			q.kind = kindPoint
			q.x, q.y, q.z = r.Float64(), r.Float64(), r.Float64()
		case p < 0.95:
			q.kind = kindRegion
			q.box = randBox(r, 0.02, 0.05)
		default:
			q.kind = kindAgg
			q.box = randBox(r, 0.04, 0.1)
			q.field = r.Intn(core.DataWords)
		}
		if q.kind == kindPoint {
			q.verify = r.Intn(verifyEvery) == 0
		} else {
			q.verify = r.Intn(4) == 0
		}
	}
	return qs
}

// queryTier is the serving stack the clients query: two in-process
// shards over one catalog and scheduler, behind a router.
type queryTier struct {
	cat   *serve.Catalog
	sched *serve.Scheduler
	rt    *router.Router
	reg   *telemetry.Registry // traced runs only; shards are then wrapped in timedBackend

	mu        sync.RWMutex
	published map[uint64]bool
}

// newQueryTier builds the serving stack over tree. A non-nil reg traces
// it: the scheduler and router record into reg, and the shards are timed.
func newQueryTier(tree *core.Tree, reg *telemetry.Registry) (*queryTier, error) {
	qt := &queryTier{published: map[uint64]bool{}, reg: reg}
	qt.cat = serve.NewCatalog(tree, serve.Config{Keep: catalogKeep})
	qt.sched = serve.NewScheduler(serve.SchedulerConfig{Workers: runtime.NumCPU(), Registry: qt.reg})
	spans := router.UniformSpans(2)
	var shards []router.ShardConfig
	for i := range spans {
		var be router.Backend = router.NewLocalBackend(fmt.Sprintf("shard%d", i), qt.cat, qt.sched)
		if reg != nil {
			be = timedBackend{be}
		}
		shards = append(shards, router.ShardConfig{Primary: be})
	}
	rt, err := router.New(router.Config{Shards: shards, Spans: spans, Registry: qt.reg})
	if err != nil {
		qt.close()
		return nil, err
	}
	qt.rt = rt
	return qt, nil
}

// publish pins the tree's committed version into the catalog. Writer
// thread only. The step is recorded as published before it becomes
// visible, so every served step a client sees is in the set.
func (qt *queryTier) publish(step uint64) error {
	qt.mu.Lock()
	qt.published[step] = true
	qt.mu.Unlock()
	s, err := qt.cat.Publish()
	if err != nil {
		return err
	}
	defer s.Close()
	if s.Step() != step {
		return fmt.Errorf("published step %d, want %d", s.Step(), step)
	}
	return nil
}

func (qt *queryTier) wasPublished(step uint64) bool {
	qt.mu.RLock()
	defer qt.mu.RUnlock()
	return qt.published[step]
}

func (qt *queryTier) close() {
	if qt.rt != nil {
		qt.rt.Close()
	}
	qt.sched.Close()
	qt.cat.Close()
}

// clientResult is one closed-loop client's tally.
type clientResult struct {
	latNs     []uint32 // per query, router call wall time
	selfNs    []uint32 // traced: router wall minus time inside the shards
	attempted int64
	failed    int64
	verified  int64
	shardCall int64 // traced: data calls into the shards
	failures  []string
}

// queryTally accumulates closed-loop query measurements over one or more
// bursts.
type queryTally struct {
	lat, self []uint32
	window    time.Duration
	calls     int64
}

// runClients drives clients closed-loop clients against qt until stop
// returns true. Latencies go to tally; counts and failed checks to rep.
func (qt *queryTier) runClients(seed int64, clients int, stop func() bool, tally *queryTally, rep *report) {
	res := make([]clientResult, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed*1000 + int64(c) + 1))
			qt.client(genQueries(r, 8192), stop, &res[c])
		}(c)
	}
	wg.Wait()
	tally.window += time.Since(t0)

	for i := range res {
		cr := &res[i]
		tally.lat = append(tally.lat, cr.latNs...)
		tally.self = append(tally.self, cr.selfNs...)
		tally.calls += cr.shardCall
		rep.attempted += cr.attempted
		rep.failed += cr.failed
		for _, f := range cr.failures {
			rep.fail("%s", f)
		}
		if cr.verified == 0 && cr.attempted >= 4*verifyEvery {
			rep.fail("client %d verified none of %d answers", i, cr.attempted)
		}
	}
}

// report records the query metrics; with a registry, also the router's
// and scheduler's per-layer figures.
func (t *queryTally) report(reg *telemetry.Registry, rep *report) {
	n := float64(len(t.lat))
	rep.set("query_per_s", n/t.window.Seconds())
	rep.set("query_us_p50", quantile(t.lat, 0.50)/1e3)
	rep.set("query_us_p99", quantile(t.lat, 0.99)/1e3)
	if reg == nil {
		return
	}
	rep.set("router.self_us_p50", quantile(t.self, 0.50)/1e3)
	rep.set("router.fanout", ratio(float64(t.calls), n))
	snap := reg.Snapshot()
	wait := mergeHists(snap, "serve.queue_wait_ns.")
	svc := mergeHists(snap, "serve.service_ns.")
	rep.set("serve.queue_wait_us_p50", wait.Quantile(0.50)/1e3)
	rep.set("serve.queue_wait_us_p99", wait.Quantile(0.99)/1e3)
	rep.set("serve.service_us_p50", svc.Quantile(0.50)/1e3)
	requests := float64(snap.Counters["serve.requests"])
	rejected := float64(snap.Counters["serve.rejected"])
	rep.set("serve.rejected_frac", ratio(rejected, requests+rejected))
	rep.set("router.retries_per_query", ratio(float64(snap.Counters["router.retries"]), n))
}

// client runs one closed loop over qs (cycled) until stop.
func (qt *queryTier) client(qs []query, stop func() bool, cr *clientResult) {
	ctx := context.Background()
	for i := 0; !stop(); i++ {
		q := &qs[i%len(qs)]
		var span *callSpans
		qctx := ctx
		if qt.reg != nil {
			span = &callSpans{}
			qctx = context.WithValue(ctx, spansKey{}, span)
		}
		start := time.Now()
		var env router.Envelope
		var ans any
		var err error
		switch q.kind {
		case kindPoint:
			var a router.PointAnswer
			a, err = qt.rt.Point(qctx, router.Latest, q.x, q.y, q.z)
			env, ans = a.Envelope, a.Result
		case kindRegion:
			var a router.RegionAnswer
			a, err = qt.rt.Region(qctx, router.Latest, q.box)
			env, ans = a.Envelope, a.Hits
		default:
			var a router.AggAnswer
			a, err = qt.rt.Aggregate(qctx, router.Latest, q.field, q.box)
			env, ans = a.Envelope, a.Result
		}
		wall := time.Since(start)
		cr.attempted++
		cr.latNs = append(cr.latNs, clampU32(wall.Nanoseconds()))
		if span != nil {
			cr.selfNs = append(cr.selfNs, clampU32(wall.Nanoseconds()-span.covered()))
			cr.shardCall += span.dataCalls
		}
		if err != nil || env.Degraded {
			// An error (a SaturatedError included) or a stale answer.
			cr.failed++
			continue
		}
		if !qt.wasPublished(env.ServedStep) {
			cr.failures = append(cr.failures, fmt.Sprintf("served step %d was never published", env.ServedStep))
			continue
		}
		if q.verify {
			ok, why := qt.verify(q, env.ServedStep, ans)
			if why != "" {
				cr.failures = append(cr.failures, why)
			}
			if ok {
				cr.verified++
			}
		}
	}
}

// verify re-answers q with a direct Snapshot call at step and compares.
// It reports whether the check ran (the version may have been retired
// meanwhile) and a failure description when the answers differ.
func (qt *queryTier) verify(q *query, step uint64, ans any) (bool, string) {
	s, err := qt.cat.Acquire(step)
	if err != nil {
		var nosuch *serve.NoSuchVersionError
		if errors.As(err, &nosuch) {
			return false, ""
		}
		return false, fmt.Sprintf("acquiring step %d: %v", step, err)
	}
	defer s.Close()
	switch q.kind {
	case kindPoint:
		want, err := s.Point(q.x, q.y, q.z)
		if err != nil || want != ans.(serve.PointResult) {
			return true, fmt.Sprintf("point (%g,%g,%g) at step %d: routed %+v, direct %+v (%v)", q.x, q.y, q.z, step, ans, want, err)
		}
	case kindRegion:
		want, err := s.Region(q.box)
		if err != nil || !slices.Equal(want, ans.([]serve.LeafHit)) {
			return true, fmt.Sprintf("region %+v at step %d: routed %d hits, direct %d (%v)", q.box, step, len(ans.([]serve.LeafHit)), len(want), err)
		}
	default:
		want, err := s.Aggregate(q.field, q.box)
		got := ans.(serve.AggResult)
		if err != nil || !aggEqual(got, want) {
			return true, fmt.Sprintf("aggregate %+v at step %d: routed %+v, direct %+v (%v)", q.box, step, got, want, err)
		}
	}
	return true, ""
}

// aggEqual compares a merged per-shard aggregate with a direct one:
// counts and extrema exactly, sums to rounding (the router adds the
// shards' partial sums, which reassociates the additions).
func aggEqual(a, b serve.AggResult) bool {
	near := func(x, y float64) bool {
		return math.Abs(x-y) <= 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	return a.Step == b.Step && a.Count == b.Count && a.Min == b.Min && a.Max == b.Max &&
		near(a.Sum, b.Sum) && near(a.VolSum, b.VolSum)
}

// mergeHists sums every histogram whose name starts with prefix (one per
// request kind). The registry's buckets have fixed bounds, so merging is
// a per-bucket sum.
func mergeHists(snap telemetry.Snapshot, prefix string) telemetry.HistogramStats {
	var out telemetry.HistogramStats
	counts := map[[2]uint64]uint64{}
	for name, h := range snap.Histograms {
		if !strings.HasPrefix(name, prefix) || h.Count == 0 {
			continue
		}
		if out.Count == 0 || h.Min < out.Min {
			out.Min = h.Min
		}
		if h.Max > out.Max {
			out.Max = h.Max
		}
		out.Count += h.Count
		out.Sum += h.Sum
		for _, b := range h.Buckets {
			counts[[2]uint64{b.Lo, b.Hi}] += b.Count
		}
	}
	for k, n := range counts {
		out.Buckets = append(out.Buckets, telemetry.HistogramBucket{Lo: k[0], Hi: k[1], Count: n})
	}
	slices.SortFunc(out.Buckets, func(a, b telemetry.HistogramBucket) int { return cmp.Compare(a.Lo, b.Lo) })
	return out
}

// timedBackend records, per query, the wall-time intervals spent inside
// shard calls, so the router's own time is the query's wall time minus
// their union.
type timedBackend struct{ router.Backend }

type spansKey struct{}

// callSpans collects one query's shard-call intervals. The router calls
// shards from several goroutines at once.
type callSpans struct {
	mu        sync.Mutex
	iv        [][2]int64
	dataCalls int64
}

func (b timedBackend) observe(ctx context.Context, data bool) func() {
	cs, _ := ctx.Value(spansKey{}).(*callSpans)
	if cs == nil {
		return func() {}
	}
	t0 := time.Now().UnixNano()
	return func() {
		t1 := time.Now().UnixNano()
		cs.mu.Lock()
		cs.iv = append(cs.iv, [2]int64{t0, t1})
		if data {
			cs.dataCalls++
		}
		cs.mu.Unlock()
	}
}

// covered returns the length of the union of the recorded intervals.
func (cs *callSpans) covered() int64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	slices.SortFunc(cs.iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, end int64
	for _, iv := range cs.iv {
		if iv[1] <= end {
			continue
		}
		if iv[0] > end {
			end = iv[0]
		}
		total += iv[1] - end
		end = iv[1]
	}
	return total
}

func (b timedBackend) Point(ctx context.Context, v uint64, x, y, z float64) (serve.PointResult, error) {
	defer b.observe(ctx, true)()
	return b.Backend.Point(ctx, v, x, y, z)
}

func (b timedBackend) Region(ctx context.Context, v uint64, box serve.Box, kr serve.KeyRange) (router.RegionResult, error) {
	defer b.observe(ctx, true)()
	return b.Backend.Region(ctx, v, box, kr)
}

func (b timedBackend) Aggregate(ctx context.Context, v uint64, field int, box serve.Box, kr serve.KeyRange) (serve.AggResult, error) {
	defer b.observe(ctx, true)()
	return b.Backend.Aggregate(ctx, v, field, box, kr)
}

func (b timedBackend) Versions(ctx context.Context) ([]uint64, error) {
	defer b.observe(ctx, false)()
	return b.Backend.Versions(ctx)
}

func clampU32(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ns)
}
