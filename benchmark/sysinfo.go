package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// header identifies the machine and the code a result file was measured on
// (ROADMAP 1(a)): a number without these next to it is not comparable.
type header struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GitCommit  string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	Repeats    int    `json:"repeats"`
	Seconds    int    `json:"seconds"`
	Smoke      bool   `json:"smoke"`
	When       string `json:"when"`
}

func newHeader(seed int64, repeats, secs int, smoke bool) header {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return header{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC: gogc, GitCommit: gitCommit(), Seed: seed, Repeats: repeats, Seconds: secs,
		Smoke: smoke, When: time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; "unknown" where
// there is none (non-Linux, restricted /proc).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is HEAD's hash, with "+dirty" when the tree has local changes;
// "unknown" outside a git checkout (the driver's checkout is not one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "+dirty"
	}
	return commit
}

// usage is the process's resource use so far.
type usage struct {
	cpu    time.Duration // user + system
	maxRSS float64       // MB, high-water mark
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	// Linux reports ru_maxrss in KiB.
	return usage{cpu: cpu, maxRSS: float64(ru.Maxrss) / 1024}
}

// meter measures one timed region: wall clock, CPU, and bytes allocated.
type meter struct {
	start time.Time
	cpu   time.Duration
	alloc uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{cpu: readUsage().cpu, alloc: ms.TotalAlloc, start: time.Now()}
}

// cost is what a timed region consumed.
type cost struct {
	wall    time.Duration
	cpu     time.Duration
	allocMB float64
}

func (m meter) stop() cost {
	wall := time.Since(m.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return cost{wall: wall, cpu: readUsage().cpu - m.cpu, allocMB: float64(ms.TotalAlloc-m.alloc) / (1 << 20)}
}
