package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// host is the fingerprint stamped on every result set. Two result sets
// are comparable only when their fingerprints are equal.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func fingerprint() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// checkProcs enforces the no-pinning rule: the benchmark runs at
// GOMAXPROCS = NumCPU. A lower value would hide work the engines fork
// onto every core (and the scheduler defects that come with it); a
// higher one would oversubscribe the machine.
func (h host) checkProcs() error {
	if h.GOMAXPROCS != h.NumCPU {
		return fmt.Errorf("GOMAXPROCS=%d but NumCPU=%d: the benchmark runs only at GOMAXPROCS = NumCPU (unset GOMAXPROCS)", h.GOMAXPROCS, h.NumCPU)
	}
	return nil
}
