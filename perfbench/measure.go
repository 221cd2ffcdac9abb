package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a timed run sets its workload up; setup_s is
// the median, and only the last instance is kept for the timed ops.
const setupReps = 3

// runTimed measures the end-to-end metrics: set-up time (median of
// setupReps set-ups), then a closed loop of ops for the given seconds with
// one client, a runtime.GC before every op outside the timer, and the peak
// RSS of the timed phase alone. Times are gated as the process's CPU time,
// which a shared host's steal and wait do not inflate; wall times go to the
// report.
func runTimed(w workload, seed int64, seconds float64) (*outcome, error) {
	out := newOutcome()
	var inst instance
	setups := make([]float64, 0, setupReps)
	setupWalls := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		inst = nil // only one set-up is alive at a time
		freeMemory()
		cpu0, start := cpuSeconds(), time.Now()
		var err error
		inst, _, err = w.setup(seed, nil)
		if err != nil {
			return nil, err
		}
		// The warm-up op is the cold first op: part of set-up, untimed
		// as an op, but its output is checked like every other.
		if err := inst.op(nil); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		setups = append(setups, cpuSeconds()-cpu0)
		setupWalls = append(setupWalls, time.Since(start).Seconds())
		out.attempted++
		if err := inst.check(); err != nil {
			out.fail("warm-up op (set-up %d): %v", rep+1, err)
		}
	}

	freeMemory()
	out.details["setup_peak_rss_mb"] = peakRSSMB()
	out.rssIsolation = resetPeakRSS()
	// FreeOSMemory's collections also emptied the library's sync.Pool
	// scratch; one untimed, checked op refills it, so every timed op starts
	// from the same pooled state behind a single runtime.GC.
	runtime.GC()
	out.attempted++
	if err := inst.op(nil); err != nil {
		return nil, fmt.Errorf("settle op: %w", err)
	}
	if err := inst.check(); err != nil {
		out.fail("settle op: %v", err)
	}

	var ops, walls, allocs []float64
	var ms runtime.MemStats
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(ops) == 0 || time.Now().Before(deadline) {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		cpu0, start := cpuSeconds(), time.Now()
		err := inst.op(nil)
		wall, cpu := time.Since(start), cpuSeconds()-cpu0
		runtime.ReadMemStats(&ms)
		out.attempted++
		if err == nil {
			err = inst.check()
		}
		if err != nil {
			out.fail("op %d: %v", len(ops)+1, err)
		}
		ops = append(ops, 1000*cpu)
		walls = append(walls, float64(wall)/float64(time.Millisecond))
		allocs = append(allocs, float64(ms.TotalAlloc-alloc0)/(1<<20))
	}
	peak := peakRSSMB()

	out.attempted++
	if err := inst.finish(); err != nil {
		out.fail("final check: %v", err)
	}
	inst.describe(out)

	tail, pct := tailPercentile(ops)
	wallTail, _ := tailPercentile(walls)
	out.set("setup_s", "s", median(setups))
	out.set("op_cpu_ms", "ms", median(ops))
	out.set("op_tail_cpu_ms", "ms", tail)
	out.set("op_alloc_mb", "MB", median(allocs))
	out.set("peak_rss_mb", "MB", peak)
	out.details["setup_s_samples"] = setups
	out.details["op_cpu_ms_samples"] = ops
	out.details["op_tail_percentile"] = pct
	out.details["op_tail_samples"] = len(ops)
	if pct == 50 {
		out.details["op_tail_note"] = "fewer than 22 ops: no percentile above the median has ten ops beyond it, so the tail is the median"
	}
	// The wall-clock figures: what a caller waits, inflated by whatever
	// else the host runs.
	out.details["wall"] = map[string]metric{
		"setup_s":    {median(setupWalls), "s"},
		"op_ms":      {median(walls), "ms"},
		"op_tail_ms": {wallTail, "ms"},
	}
	out.details["wall_op_ms_samples"] = walls
	return out, nil
}

// cpuSeconds returns the CPU time, user plus system, that every thread of
// the process has used so far. The kernel does not count time a shared
// host stole from the guest's CPUs.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// freeMemory collects garbage and returns freed pages to the OS, so the
// next phase starts from the same heap and RSS.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS resets the kernel's VmHWM to the current RSS by writing 5 to
// /proc/self/clear_refs, so a later peakRSSMB reads the peak of the phase
// that follows. It reports how peak_rss_mb is scoped.
func resetPeakRSS() string {
	before := peakRSSMB()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Sprintf("whole process (VmHWM reset failed: %v)", err)
	}
	if after := peakRSSMB(); after > 0 && after <= before {
		return "timed phase only (VmHWM reset via /proc/self/clear_refs)"
	}
	return "whole process (VmHWM did not reset)"
}

// peakRSSMB reads VmHWM from /proc/self/status in MiB (0 if unavailable).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailPercentile returns the highest order statistic of xs that still has
// at least ten samples above it, and its percentile rank. Below 22 samples
// that statistic would fall under the median (or not exist), so the median
// is returned instead: the run holds no evidence of a tail beyond it.
func tailPercentile(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if i := len(s) - 11; i >= len(s)/2 {
		return s[i], 100 * float64(i+1) / float64(len(s))
	}
	return median(s), 50
}
