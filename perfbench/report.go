package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"text/tabwriter"
)

// metricName is a declared metric: its name and unit.
type metricName struct{ name, unit string }

// The end-to-end metrics, printed by untraced runs on every workload.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"step_ms_p50", "ms"},
	{"recover_ms", "ms"},
	{"nvbm_mb", "MB"},
	{"query_per_s", "1/s"},
	{"query_us_p50", "us"},
	{"query_us_p99", "us"},
}

// The step-phase rows of the per-layer table, in step order. Each row's
// time is taken around one call into the layer's public entry point;
// sim.other is the step clock minus every other row, so the rows sum to
// the step clock.
var phaseRows = []string{
	"core.refine", "core.coarsen", "core.balance", "tile.gather",
	"sim.solve", "tile.scatter", "core.persist", "sim.other",
}

const (
	rowRefine = iota
	rowCoarsen
	rowBalance
	rowGather
	rowSolve
	rowScatter
	rowPersist
	rowOther
	nRows
)

// The per-layer metrics besides the phase rows, printed by traced runs on
// every workload.
var perLayer = []metricName{
	{"bench.step_ms_mean", "ms"},
	{"bench.trace_overhead_frac", "frac"},
	{"nvbm.modeled_ms_per_step", "ms"},
	{"nvbm.read_ns", "ns"},
	{"pmem.arena_read_ns", "ns"},
	{"core.findleaf_ns", "ns"},
	{"core.balance.split_frac", "frac"},
	{"core.cache.hit_frac", "frac"},
	{"core.leafindex.reuse_frac", "frac"},
	{"core.tile.reuse_frac", "frac"},
	{"core.cow_copies_per_step", "count"},
	{"core.gc_freed_per_step", "count"},
	{"core.overlap", "frac"},
	{"core.restore_ms", "ms"},
	{"core.pipeline.stalls_per_step", "count"},
	{"core.pipeline.coalesced_frac", "frac"},
	{"core.flush_ms", "ms"},
	{"parallel.utilization", "frac"},
	{"router.self_us_p50", "us"},
	{"router.fanout", "count"},
	{"router.retries_per_query", "count"},
	{"serve.queue_wait_us_p50", "us"},
	{"serve.queue_wait_us_p99", "us"},
	{"serve.service_us_p50", "us"},
	{"serve.rejected_frac", "frac"},
	{"serve.index_build_ms", "ms"},
	{"serve.snapshot_point_ns", "ns"},
	{"serve.snapshot_region_us", "us"},
}

// perLayerNames lists every per-layer metric name with its unit: the
// phase rows (time and NVBM traffic per row) and then perLayer.
func perLayerNames() []metricName {
	var out []metricName
	for _, r := range phaseRows {
		out = append(out,
			metricName{r + ".ms_per_step", "ms"},
			metricName{r + ".nvbm_reads_per_step", "count"},
			metricName{r + ".nvbm_writes_per_step", "count"})
	}
	return append(out, perLayer...)
}

// report collects one run's measurements and check outcomes.
type report struct {
	vals      map[string]float64
	attempted int64
	failed    int64
	failures  []string
	notes     []string

	// Traced step rows and the step clock, summed over traced steps.
	traced    int
	clockNs   float64
	rowNs     [nRows]float64
	rowReads  [nRows]float64
	rowWrites [nRows]float64
}

func newReport() *report { return &report{vals: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.vals[name] = v }

// fail records a failed output check; the run then reports correct=false.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// note records a diagnostic line printed above the result.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// metrics returns the end-to-end or the per-layer metric set. A metric
// the run did not measure is a bug in the benchmark and fails the run.
func (r *report) metrics(trace bool) map[string]metric {
	names := endToEnd
	if trace {
		r.foldRows()
		names = perLayerNames()
	}
	out := make(map[string]metric, len(names))
	for _, m := range names {
		v, ok := r.vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s was not measured", m.name)
			v = 0
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out
}

// foldRows turns the traced row sums into per-step means.
func (r *report) foldRows() {
	if r.traced == 0 {
		return
	}
	n := float64(r.traced)
	r.set("bench.step_ms_mean", r.clockNs/n/1e6)
	for i, name := range phaseRows {
		r.set(name+".ms_per_step", r.rowNs[i]/n/1e6)
		r.set(name+".nvbm_reads_per_step", r.rowReads[i]/n)
		r.set(name+".nvbm_writes_per_step", r.rowWrites[i]/n)
	}
}

// writeTable prints the per-layer table: the phase rows with their share
// of the step clock, then every other per-layer metric.
func (r *report) writeTable(w io.Writer) {
	r.foldRows()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "row\tms/step\tshare\tnvbm reads/step\tnvbm writes/step\t")
	clock := r.vals["bench.step_ms_mean"]
	sum := 0.0
	for _, name := range phaseRows {
		ms := r.vals[name+".ms_per_step"]
		sum += ms
		fmt.Fprintf(tw, "%s\t%.3f\t%.1f%%\t%.0f\t%.0f\t\n", name, ms, 100*ms/clock,
			r.vals[name+".nvbm_reads_per_step"], r.vals[name+".nvbm_writes_per_step"])
	}
	fmt.Fprintf(tw, "rows sum\t%.3f\t\t\t\t\n", sum)
	fmt.Fprintf(tw, "step clock\t%.3f\t\t\t\t\n", clock)
	tw.Flush()
	var rest []string
	for _, m := range perLayer {
		if m.name != "bench.step_ms_mean" {
			rest = append(rest, fmt.Sprintf("%-32s %14.4f %s", m.name, r.vals[m.name], m.unit))
		}
	}
	fmt.Fprintln(w, strings.Join(rest, "\n"))
}

// median returns the median of xs, leaving xs unmodified.
func median(xs []float64) float64 { return quantile(slices.Clone(xs), 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none), sorting xs in place.
func quantile[T float64 | uint32](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return float64(xs[len(xs)-1])
	}
	return float64(xs[lo]) + (pos-float64(lo))*(float64(xs[lo+1])-float64(xs[lo]))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
