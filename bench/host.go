package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the fingerprint recorded with every results.json, so that
// two result files can be told apart when their numbers disagree.
type hostInfo struct {
	GoVersion  string  `json:"go_version"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
	// Noisy marks a run started on a host that was already busy: its
	// timings are not evidence for or against a change.
	Noisy bool `json:"noisy"`
}

// load1 reads the 1-minute load average (0 where /proc is absent).
func load1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // malformed reads as an idle host
	return v
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

func readHost() hostInfo {
	h := hostInfo{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		LoadStart:  load1(),
	}
	h.Noisy = h.LoadStart > 1.0
	return h
}

func (h *hostInfo) finish() { h.LoadEnd = load1() }
