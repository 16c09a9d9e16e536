package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"pmoctree/internal/parallel"
	"pmoctree/internal/serve"
)

// small shrinks a workload to a few steps at a low level, for smoke runs.
// Its final mesh is not the one workloads.json pins, so callers use a
// non-default seed or set the workload's digest.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	w.MaxLevel = 5
	w.LastStep = 5
	return w
}

// smoke runs wl for a fraction of a second and returns the printed lines
// and the decoded result.
func smoke(t *testing.T, wl workload, o options) ([]string, result, int) {
	t.Helper()
	if o.seconds == 0 {
		o.seconds = 0.5
	}
	var out bytes.Buffer
	code := run(wl, o, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return lines, res, code
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string, wls []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, w := range doc.Workloads {
		wls = append(wls, w.Name)
	}
	return e2e, layer, wls
}

func units(ms map[string]metric) map[string]string {
	out := map[string]string{}
	for k, m := range ms {
		out[k] = m.Unit
	}
	return out
}

func sameKeys(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for k, u := range want {
		if got[k] != u {
			t.Errorf("%s: %s has unit %q, want %q", what, k, got[k], u)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: %s is not declared", what, k)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each run passes its output checks and emits exactly the metrics
// BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	e2e, layer, wls := declared(t)
	c, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(wls, ",") {
		t.Fatalf("workloads.json lists %v, BENCHMARK.json %v", names, wls)
	}
	for _, name := range wls {
		for _, trace := range []bool{false, true} {
			_, res, code := smoke(t, small(t, name), options{seed: 2, trace: trace})
			if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: exit %d, result %+v", name, trace, code, res)
			}
			want := e2e
			if trace {
				want = layer
			}
			sameKeys(t, name, units(res.Metrics), want)
			if !trace {
				for k, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, m.Value)
					}
				}
			}
		}
	}
}

// TestDeclaredNames checks the code's metric lists against BENCHMARK.json
// and workloads.json's per-layer map.
func TestDeclaredNames(t *testing.T) {
	e2e, layer, _ := declared(t)
	code := map[string]string{}
	for _, m := range endToEnd {
		code[m.name] = m.unit
	}
	sameKeys(t, "end_to_end", code, e2e)
	code = map[string]string{}
	for _, m := range perLayerNames() {
		code[m.name] = m.unit
	}
	sameKeys(t, "per_layer", code, layer)

	c, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for name := range layer {
		if c.Moves[name] == "" {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("workloads.json per_layer_moves lacks %v", missing)
	}
	hex := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, w := range c.Workloads {
		if !hex.MatchString(w.Digest) {
			t.Errorf("%s: recorded digest %q is not 16 hex digits", w.Name, w.Digest)
		}
	}
}

// TestTracedRowsSumToClock checks that the per-layer phase rows add up to
// the traced step clock, and that the table prints them.
func TestTracedRowsSumToClock(t *testing.T) {
	for _, name := range []string{"eject-l7", "boil-l6-pipe"} {
		lines, res, code := smoke(t, small(t, name), options{seed: 2, trace: true})
		if code != 0 {
			t.Fatalf("%s: exit %d", name, code)
		}
		sum := 0.0
		for _, r := range phaseRows {
			sum += res.Metrics[r+".ms_per_step"].Value
		}
		clock := res.Metrics["bench.step_ms_mean"].Value
		if clock <= 0 || sum < clock*(1-1e-9) || sum > clock*(1+1e-9) {
			t.Errorf("%s: rows sum to %v ms, step clock %v ms", name, sum, clock)
		}
		if !strings.Contains(strings.Join(lines, "\n"), "step clock") {
			t.Errorf("%s: no per-layer table printed", name)
		}
	}
}

// TestWrongDigestFails checks that a default-seed run whose final mesh
// does not match the recorded digest reports correct=false and exits
// nonzero, and that the matching digest passes.
func TestWrongDigestFails(t *testing.T) {
	for _, name := range []string{"eject-l7", "query-live"} {
		wl := small(t, name)
		wl.Digest = "0123456789abcdef"
		lines, res, code := smoke(t, wl, options{seed: defaultSeed})
		if code == 0 || res.Correct {
			t.Errorf("%s: wrong digest accepted: exit %d, correct=%v", name, code, res.Correct)
		}
		m := regexp.MustCompile(`digest=([0-9a-f]{16})`).FindStringSubmatch(strings.Join(lines, "\n"))
		if m == nil {
			t.Fatalf("%s: no digest note", name)
		}
		wl.Digest = m[1]
		if _, res, code := smoke(t, wl, options{seed: defaultSeed}); code != 0 || !res.Correct {
			t.Errorf("%s: matching digest rejected: exit %d", name, code)
		}
	}
}

// TestWrongAnswerFails checks that the answer verifier rejects a routed
// answer that differs from a direct snapshot call.
func TestWrongAnswerFails(t *testing.T) {
	wl := small(t, "query-live")
	pool := parallel.New(2)
	tree, _, _, err := setUp(wl, wl.field(2), pool)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	qt, err := newQueryTier(tree, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer qt.close()
	step := tree.CommittedStep()
	if err := qt.publish(step); err != nil {
		t.Fatal(err)
	}
	s, err := qt.cat.Acquire(step)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q := &query{kind: kindPoint, x: 0.5, y: 0.5, z: 0.8}
	right, err := s.Point(q.x, q.y, q.z)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := qt.verify(q, step, right); !ok || why != "" {
		t.Fatalf("right answer rejected: %v %q", ok, why)
	}
	wrong := right
	wrong.Data[0] += 1
	if _, why := qt.verify(q, step, wrong); why == "" {
		t.Error("wrong point answer accepted")
	}
	agg := &query{kind: kindAgg, box: serve.Box{Max: [3]float64{1, 1, 1}}}
	a, err := s.Aggregate(0, agg.box)
	if err != nil {
		t.Fatal(err)
	}
	a.Count++
	if _, why := qt.verify(agg, step, a); why == "" {
		t.Error("wrong aggregate answer accepted")
	}
}
