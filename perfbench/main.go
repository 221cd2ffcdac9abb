// Command perfbench is the repository benchmark for bfskel: it builds one
// workload's networks from a seed, times a closed loop of operations through
// the library's public functions, checks every operation's output, and
// prints one JSON result line.
//
//	go build -o skelperf . && ./skelperf --workload field_1e5 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (setup_s,
// op_cpu_ms, op_tail_cpu_ms, op_alloc_mb, peak_rss_mb; times are process CPU
// time, and the wall-clock figures go to the report); with --trace 1 a
// separate traced run reports the per-layer metrics. The line before the result is a JSON
// report with the environment, the tail percentile and its sample count, and
// the checks' details. README.md records why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line, the one a harness comparing runs parses.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line printed before the result: what a reader needs to
// interpret the metrics.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Env      envInfo        `json:"env"`
	Details  map[string]any `json:"details"`
	Failures []string       `json:"failures,omitempty"`
}

// envInfo identifies the machine, toolchain and build a result came from.
type envInfo struct {
	GoVersion    string `json:"go_version"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Commit       string `json:"commit"`
	SimEngine    string `json:"simnet_engine"`
	FloodKernel  string `json:"flood_kernel"`
	RSSIsolation string `json:"rss_isolation,omitempty"`
}

func currentEnv() envInfo {
	env := envInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown (no VCS metadata in the build)",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			env.Commit = rev + dirty
		}
	}
	return env
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted int
	failures  []string
	metrics   map[string]metric
	details   map[string]any
	// engines and kernels seen during the run, resolved by the library.
	engines, kernels map[string]bool
	// rssIsolation says how peak_rss_mb is scoped (timed runs only).
	rssIsolation string
}

func newOutcome() *outcome {
	return &outcome{
		metrics: map[string]metric{},
		details: map[string]any{},
		engines: map[string]bool{},
		kernels: map[string]bool{},
	}
}

// fail records one failed check.
func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

func joinKeys(m map[string]bool, none string) string {
	if len(m) == 0 {
		return none
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: deployment, links and churn schedule")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}

	var out *outcome
	var err error
	if *trace == 1 {
		out, err = runTraced(w, *seed, *seconds)
	} else {
		out, err = runTimed(w, *seed, *seconds)
	}
	if err != nil {
		// A workload that cannot be set up has no result to report.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}

	env := currentEnv()
	env.SimEngine = joinKeys(out.engines, "not run by this workload")
	env.FloodKernel = joinKeys(out.kernels, "not run by this workload")
	env.RSSIsolation = out.rssIsolation
	rep := report{Workload: *name, Seed: *seed, Trace: *trace == 1, Env: env, Details: out.details, Failures: out.failures}
	res := result{
		Correct:   len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    len(out.failures),
		Metrics:   out.metrics,
	}
	enc := json.NewEncoder(os.Stdout)
	for _, v := range []any{rep, res} {
		if err := enc.Encode(v); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write result: %v\n", err)
			os.Exit(1)
		}
	}
}
