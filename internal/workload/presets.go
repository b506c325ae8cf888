package workload

import (
	"bytes"
	"embed"
	"fmt"
	"strings"
	"sync"
)

// The ten builtin datasets are declarative preset specs: specs/*.json is
// their one definition, and Lookup serves the models they compile to. The
// shapes follow the paper's characterization (Figs 2–5, Table 1):
//
//   - Google 2011: overwhelmingly tiny requests (<1–2 cores), sub-minute to
//     minutes runtimes, very high and bursty arrival rate.
//   - Alibaba-2017/2018: co-located batch+service mix; small-to-mid
//     requests, moderate runtimes; 2018 skews larger and longer.
//   - HPC-KS/HF/WZ: few large parallel jobs; multi-core requests,
//     long runtimes, low arrival rates. The three centers differ in scale
//     (Table 1: 8–40 CPUs, up to ~990 GiB memory nodes).
//   - KVM-2019/2020: education-project VMs on OpenStack; mid requests,
//     strongly diurnal arrivals; 2020 runs somewhat larger instances.
//   - CERIT-SC: mixed scientific cloud; broad request spread, heavy-tailed
//     runtimes.
//   - K8S: small containers (fractions of cores rounded up to 1–4),
//     short-to-mid runtimes with a heavy tail, high arrival rate.
//
// Service classes reflect each source's tenant expectations: the HPC
// centers and the scientific cloud submit best-effort batch jobs, the
// cloud/VM traces run standard interactive services, and the Kubernetes
// containers are latency-critical.
//
// The task streams the presets generate are frozen by digest in
// TestPresetSpecsMatchBuiltins: editing a preset field moves every figure.
//
//go:embed specs/*.json
var presetFS embed.FS

// presetFileName maps a dataset to its shipped spec file.
func presetFileName(id DatasetID) string {
	return "specs/" + strings.ToLower(id.String()) + ".json"
}

// PresetSpecJSON returns the raw shipped preset spec for a builtin dataset.
func PresetSpecJSON(id DatasetID) ([]byte, error) {
	if id < 0 || int(id) >= NumDatasets {
		return nil, fmt.Errorf("workload: no preset spec for dataset %v", id)
	}
	b, err := presetFS.ReadFile(presetFileName(id))
	if err != nil {
		return nil, fmt.Errorf("workload: preset %s: %w", id, err)
	}
	return b, nil
}

// PresetSpec parses and validates the shipped preset spec for a dataset.
func PresetSpec(id DatasetID) (*Spec, error) {
	raw, err := PresetSpecJSON(id)
	if err != nil {
		return nil, err
	}
	s, err := ParseSpec(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("workload: preset %s: %w", id, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("workload: preset %s: %w", id, err)
	}
	return s, nil
}

// presetModels are the ten presets compiled onto the Model machinery, built
// on first use (parsing and compiling all ten costs about a millisecond).
var presetModels struct {
	once sync.Once
	byID [NumDatasets]Model
}

// compilePresets fills presetModels. The presets are embedded and pinned by
// tests, so a preset that fails to compile is a build defect, not input.
func compilePresets() {
	for _, id := range AllDatasets() {
		spec, err := PresetSpec(id)
		if err != nil {
			panic(err)
		}
		comp, err := spec.Compile()
		if err != nil || len(comp.Clients) != 1 {
			panic(fmt.Sprintf("workload: preset %s: want one client (compile error: %v)", id, err))
		}
		m := *comp.Clients[0].Model
		m.Name = id.String()
		presetModels.byID[id] = m
	}
}

// Lookup returns the built-in model for a dataset ID: a copy of its compiled
// preset, named after the dataset.
func Lookup(id DatasetID) *Model {
	if id < 0 || int(id) >= NumDatasets {
		panic(fmt.Sprintf("workload: unknown dataset %v", id))
	}
	presetModels.once.Do(compilePresets)
	m := presetModels.byID[id]
	return &m
}
