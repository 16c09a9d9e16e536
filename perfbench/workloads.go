package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"

	"pmoctree/internal/sim"
)

//go:embed workloads.json
var workloadsJSON []byte

// workload is one entry of workloads.json: the inputs a run generates
// and the digest its final mesh must have at the default seed. The
// entry's "why" and "layers" are documentation only.
type workload struct {
	Name        string `json:"name"`
	Scenario    string `json:"scenario"`     // "ejection" or "boiling"
	MaxLevel    uint8  `json:"max_level"`    // refinement limit
	LastStep    int    `json:"last_step"`    // step 1 is set-up, 2..LastStep are timed
	Pipeline    int    `json:"pipeline"`     // persist pipeline depth, 0 = synchronous
	GroupCommit int    `json:"group_commit"` // versions per durable commit
	Live        bool   `json:"live"`         // readers query beside the stepping writer
	Digest      string `json:"digest"`       // final leaf digest at the default seed
}

// catalog is the parsed workloads.json.
type catalog struct {
	DefaultSeed int64             `json:"default_seed"`
	Workloads   []workload        `json:"workloads"`
	Moves       map[string]string `json:"per_layer_moves"`
}

func loadCatalog() (catalog, error) {
	var c catalog
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return c, fmt.Errorf("parsing workloads.json: %w", err)
	}
	if c.DefaultSeed != defaultSeed {
		return c, fmt.Errorf("workloads.json default_seed %d, want %d", c.DefaultSeed, defaultSeed)
	}
	return c, nil
}

func lookup(name string) (workload, error) {
	c, err := loadCatalog()
	if err != nil {
		return workload{}, err
	}
	for _, w := range c.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// field builds the workload's scenario from the seed. The seed perturbs
// the interface speed by up to ±0.5%, so each seed is a different input
// of the same size and cost; the default seed's final mesh is pinned by
// workloads.json. The nucleation sites keep cmd/droplet's seed.
func (w workload) field(seed int64) sim.Field {
	nominal := w.LastStep + 10
	jitter := 1 + 0.01*(rand.New(rand.NewSource(seed)).Float64()-0.5)
	if w.Scenario == "boiling" {
		return sim.NewBoiling(sim.BoilingConfig{Steps: nominal, Seed: 42, RiseSpeed: 0.8 * jitter})
	}
	return sim.NewDroplet(sim.DropletConfig{Steps: nominal, Jets: 1, JetSpeed: 0.55 * jitter})
}
