package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// hostInfo fingerprints the machine and build a result came from, so
// figures from different boxes or trees are not compared as if alike.
type hostInfo struct {
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go"`
	Commit     string            `json:"commit"`
	Dirty      bool              `json:"dirty"`
	CPUModel   string            `json:"cpu_model"`
	Env        map[string]string `json:"env"`
}

// fingerprintEnv lists the environment variables that change how the
// program runs (GC target, worker and shard counts).
var fingerprintEnv = []string{"GOGC", "PCC_GOGC", "PCC_PAR", "PCC_SHARDS"}

func fingerprint() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		CPUModel:   cpuModel(),
		Env:        make(map[string]string),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	for _, k := range fingerprintEnv {
		h.Env[k] = os.Getenv(k)
	}
	return h
}

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
