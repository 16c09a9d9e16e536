// Command perfbench is the repository's benchmark. It runs one named
// workload through the simulation step path (sim, core, tile, parallel,
// nvbm, pmem), the recovery path (core.Restore) and the query path
// (serve, router), checks every output, and prints one JSON result as the
// last line of standard output:
//
//	bash perfbench/run.sh --workload eject-l7 --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// the same workload runs with a timing wrapper around the layers' public
// entry points, and the result holds the per-layer metrics; a
// human-readable per-layer table is printed above it. The workloads, why
// each exists, and which end-to-end metric each layer metric should move
// are recorded in workloads.json.
//
// A run whose outputs fail a check prints "correct": false and exits 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// defaultSeed is the seed whose final leaf digests workloads.json records.
const defaultSeed = 1

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options selects one run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

func main() {
	var (
		o     options
		name  string
		trace int
	)
	flag.StringVar(&name, "workload", "", "workload name (see workloads.json)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 35, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = per-layer run, 0 = end-to-end run")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() != 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	wl, err := lookup(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(run(wl, o, os.Stdout))
}

// run executes one benchmark run of wl, writing the report to w, and
// returns the process exit code.
func run(wl workload, o options, w io.Writer) int {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	env, _ := json.Marshal(map[string]any{
		"workload":   wl.Name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	})
	fmt.Fprintf(bw, "env %s\n", env)

	rep := newReport()
	if wl.Live {
		runLive(wl, o, rep)
	} else {
		runSteps(wl, o, rep)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(bw, "note", n)
	}
	if o.trace {
		rep.writeTable(bw)
	}
	for i, msg := range rep.failures {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... and %d more failed checks\n", len(rep.failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	res := result{
		Correct:   len(rep.failures) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics(o.trace),
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(bw, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// cpuModel names the processor, for the environment line only.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
