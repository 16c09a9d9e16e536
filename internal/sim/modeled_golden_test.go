package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pmoctree/internal/core"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/parallel"
)

var updateGolden = flag.Bool("update", false, "rewrite the modeled-stats golden file")

// modeledStep is one step's line of the modeled-stats golden: the step
// counts the mesh reports, both devices' modeled counters after the
// step's Persist, and the working root ref.
type modeledStep struct {
	Step     int        `json:"step"`
	Balanced int        `json:"balanced"`
	Leaves   int        `json:"leaves"`
	NVBM     nvbm.Stats `json:"nvbm"`
	DRAM     nvbm.Stats `json:"dram"`
	Root     core.Ref   `json:"root"`
}

// TestModeledStatsGolden pins, step by step, the modeled device traffic of
// a sync-persist droplet ejection at maxlevel 6 with a 2048-octant C0
// budget (the cmd/droplet default), so both devices see reads. Every
// routine of the step charges through these counters, so any host-side
// rewrite of a routine (Balance's flat violator finder, for one) must
// charge exactly what the code it replaces charged, per device, to keep
// this file byte-identical. The persist pipeline is left off: under it
// the root ref and a snapshot's counters depend on writeback timing.
// Regenerate with `go test ./internal/sim -run ModeledStatsGolden -update`
// only after a declared change to the modeled costs.
func TestModeledStatsGolden(t *testing.T) {
	const steps, maxLevel = 20, 6
	nv, dram := nvbm.New(nvbm.NVBM, 0), nvbm.New(nvbm.DRAM, 0)
	tree := core.Create(core.Config{NVBMDevice: nv, DRAMDevice: dram, DRAMBudgetOctants: 2048})
	defer tree.Close()
	f := NewDroplet(DropletConfig{Steps: steps + 10})
	// A forced pool takes the parallel tiled path whatever GOMAXPROCS is;
	// a one-worker pool steps serially and charges differently.
	pool := parallel.NewForced(2)
	tree.SetFeatures(FeatureOf(f, 1))
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for s := 1; s <= steps; s++ {
		sc := StepFieldPool(tree, f, s, maxLevel, pool)
		tree.SetFeatures(FeatureOf(f, s+1))
		tree.Persist()
		if err := enc.Encode(modeledStep{s, sc.Balanced, sc.Leaves, nv.Stats(), dram.Stats(), tree.Root()}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "modeled_stats_l6.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	gotLines, wantLines := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range wantLines {
		if i >= len(gotLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
			got := []byte("<missing>")
			if i < len(gotLines) {
				got = gotLines[i]
			}
			t.Fatalf("step line %d differs from golden:\n got %s\nwant %s", i+1, got, wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden lines, want %d", len(gotLines), len(wantLines))
	}
}
