package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// maxStartLoad is the 1-minute load average above which a run is marked as
// taken on a busy machine: its wall-clock figures are not to be trusted.
const maxStartLoad = 1.5

// header records where and how a ledger was taken.
type header struct {
	GoVersion  string  `json:"go_version"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds"`
	LoadAvg1   float64 `json:"loadavg_1m"`
	Loaded     bool    `json:"loaded"` // load average above maxStartLoad at start
}

func readHeader(o options) header {
	h := header{
		GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Commit: gitCommit(),
		Seed: o.seed, Reps: o.reps, Seconds: o.seconds,
		LoadAvg1: loadAvg1(),
	}
	h.Loaded = h.LoadAvg1 > maxStartLoad
	return h
}

// print writes the header as comment lines ahead of the figures.
func (h header) print() {
	fmt.Printf("# flowgo bench: %s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s\n", h.GoVersion, h.GoMaxProcs, h.NumCPU, h.CPUModel, h.Commit)
	fmt.Printf("# seed=%d reps=%d seconds=%g loadavg_1m=%.2f\n", h.Seed, h.Reps, h.Seconds, h.LoadAvg1)
	if h.Loaded {
		fmt.Printf("# WARNING: load average %.2f > %.1f at start; the result is marked loaded and its timings are suspect\n", h.LoadAvg1, maxStartLoad)
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// gitCommit resolves HEAD by reading .git directly (no git binary needed);
// "unknown" outside a checkout with history.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return strings.TrimSpace(string(head))
	}
	if data, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}
