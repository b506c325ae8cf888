package workload

// MachineSpec mirrors one row of the paper's Table 1 (machine specifications
// of the source clusters).
type MachineSpec struct {
	Dataset  string
	CPUs     string
	MemGiB   string
	Nodes    int
	Platform string
}

// Table1 reproduces the paper's Table 1 verbatim.
func Table1() []MachineSpec {
	return []MachineSpec{
		{"Google", "20~24", "7~62", 6, ""},
		{"KVM-2019", "48", "94~127", 1551, "OpenStack"},
		{"KVM-2020", "40", "62~63", 101, "OpenStack"},
		{"K8S", "128", "512", 20, "Kubernetes"},
		{"CERIT-SC (a)", "8", "64", 18, "Grid-workers"},
		{"CERIT-SC (b)", "8", "117", 33, "Grid-workers"},
		{"CERIT-SC (c)", "16", "117", 113, "Grid-workers"},
		{"HPC (a)", "40", "232~488", 36, ""},
		{"HPC (b)", "40", "944~990", 28, ""},
		{"Alibaba (a)", "64", "512", 798, "Alibaba PAI"},
		{"Alibaba (b)", "96", "512", 497, "Alibaba PAI"},
		{"Alibaba (c)", "96", "512", 280, "Alibaba PAI"},
		{"Alibaba (d)", "96", "384", 135, "Alibaba PAI"},
		{"Alibaba (e)", "96", "512/384", 104, "Alibaba PAI"},
		{"Alibaba (f)", "96", "512", 83, "Alibaba PAI"},
	}
}
