package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Parent is the id of the span that caused it
// (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: begin returns 0 and end does nothing, so the measured code
// path is the same call sequence either way.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// spanSummary is one line of the written trace summary: how often a span
// name occurred, its total time and its self time (total minus the time
// its child spans cover).
type spanSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (t *tracer) summary() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]interval)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	byName := make(map[string]*spanSummary)
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		sum.Count++
		sum.TotalS += s.seconds()
		sum.SelfS += float64(selfTime(interval{s.Start, s.End}, children[s.ID])) / 1e9
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the spans and their summary as one JSON document.
func (t *tracer) write(path string, host hostInfo) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	sum := t.summary()
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Host    hostInfo      `json:"host"`
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{host, sum, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// rtSample is a snapshot of the Go runtime counters the per-layer metrics
// difference across a pass or a trial.
type rtSample struct {
	gcCPU      float64 // seconds of CPU spent in the garbage collector
	gcCycles   uint64
	allocBytes uint64
	allocObjs  uint64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		gcCPU:      s[0].Value.Float64(),
		gcCycles:   s[1].Value.Uint64(),
		allocBytes: s[2].Value.Uint64(),
		allocObjs:  s[3].Value.Uint64(),
	}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{
		gcCPU:      a.gcCPU - b.gcCPU,
		gcCycles:   a.gcCycles - b.gcCycles,
		allocBytes: a.allocBytes - b.allocBytes,
		allocObjs:  a.allocObjs - b.allocObjs,
	}
}
