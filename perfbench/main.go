// Command perfbench is sheriff's end-to-end benchmark. It runs one
// workload through the real program — the v1 HTTP server on a durable
// data dir, the crawler and a replication follower — checks every output
// against values computed apart from the program, and prints the result
// as one JSON line:
//
//	bash perfbench/run.sh --workload crowd-paper --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with --trace 1 the same workload and seed run once untraced and once
// traced, and the metrics are the per-layer split. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() { os.Exit(run()) }

// buildDir holds the benchmark's binary, data dirs and span files: inside
// the checkout, so a run touches nothing outside it.
const buildDir = ".bench_build"

func run() int {
	workloadName := flag.String("workload", "", "workload name: crowd-paper, crowd-hot or crawl-archive")
	seed := flag.Int64("seed", 1, "workload seed: the crowd and every check it sends derive from it")
	seconds := flag.Int("seconds", 10, "measured seconds: sizes the crowd load at the workload's nominal check rate")
	worldSeed := flag.Int64("world-seed", defaultWorldSeed, "seed of the simulated world the inputs reach")
	trace := flag.Int("trace", 0, "1 runs the workload untraced and traced and prints the per-layer metrics")
	small := flag.Bool("small", false, "run a reduced size of the workload, end to end in seconds")
	flag.Parse()

	w, ok := lookupWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *workloadName, workloadNames())
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *small {
		w = w.small()
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	cfg := runConfig{workload: w, seed: *seed, worldSeed: *worldSeed, seconds: *seconds, traced: *trace == 1, dir: scratch}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	if cfg.traced {
		res.report.TraceFile = filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, *seed))
		if err := res.trace.writeFile(res.report.TraceFile); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
	}
	emit(res)
	if !res.correct || res.failed > 0 {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run prints: the machine-readable report line, then
// the final line the benchmark contract reads.
type result struct {
	correct       bool
	attempted     int
	failed        int
	metrics       map[string]metric
	report        runReport
	trace         *tracer
	checkFailures []string
}

// runReport is the line before the result: how the run was made and
// what it attempted, per operation kind.
type runReport struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Traced     bool               `json:"traced"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"nproc"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	TreeSHA256 string             `json:"tree_sha256"`
	Operations map[string]opCount `json:"operations"`
	Inputs     map[string]any     `json:"inputs"`
	Stages     map[string]float64 `json:"stage_seconds"`
	Metrics    map[string]metric  `json:"metrics"`
	// Wall is the operations' wall-clock figures; untraced runs report
	// them here because they are not gated (see endToEnd).
	Wall          map[string]metric `json:"wall_clock,omitempty"`
	TraceFile     string            `json:"trace_file,omitempty"`
	CheckFailures []string          `json:"check_failures,omitempty"`
}

// opCount tallies one kind of operation.
type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

func emit(res result) {
	res.report.GOMAXPROCS = runtime.GOMAXPROCS(0)
	res.report.NumCPU = runtime.NumCPU()
	res.report.GoVersion = runtime.Version()
	res.report.Commit, res.report.TreeSHA256 = sourceIdentity()
	res.report.Metrics = res.metrics
	res.report.CheckFailures = res.checkFailures
	line, _ := json.Marshal(map[string]any{"report": res.report})
	fmt.Println(string(line))
	final, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, res.metrics})
	fmt.Println(string(final))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
