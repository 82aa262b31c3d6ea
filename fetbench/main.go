// Command fetbench is the repository's end-to-end benchmark. It runs one
// named workload through the public passivespread API, checks that the
// outputs are correct, and prints one JSON result line:
//
//	fetbench --workload sweep-complete --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics listed in
// BENCHMARK.json; with --trace 1 the workload runs again with spans
// recorded around every layer call, the direct layer probes run on the
// workload's own parameters, and the result carries the per-layer
// metrics. Spans are written to <root>/.bench_build/traces. METRICS.md
// defines every metric and the end-to-end metric each layer metric
// should move. run.sh builds this module and runs it from the root of a
// checkout.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its outcome.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	workers  int
	root     string // checkout root (holds go.mod)
	work     string // scratch directory, removed at exit
	tr       *tracer
	prov     map[string]interface{} // provenance; workloads may add to it

	attempted, failed int
	mismatches        []string
	values            map[string]float64
}

// attempt counts n operations of which bad failed.
func (r *run) attempt(n, bad int) {
	r.attempted += n
	r.failed += bad
}

// check counts one correctness check; a false ok is a failure.
func (r *run) check(ok bool, format string, args ...interface{}) {
	r.attempted++
	if !ok {
		r.failed++
		r.mismatch(format, args...)
	}
}

// mismatch fails the run's correctness for an operation already counted
// through attempt.
func (r *run) mismatch(format string, args ...interface{}) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// set records a metric value; BENCHMARK.json supplies its unit.
func (r *run) set(name string, v float64) { r.values[name] = v }

// workloads maps each workload name to its untraced and traced runners.
var workloads = map[string]struct {
	timed  func(*run) error
	traced func(*run) error
}{
	"sweep-complete": {sweepTimed, sweepTraced},
	"study-sparse":   {sparseTimed, sparseTraced},
	"serve-mix":      {serveTimed, serveTraced},
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		workload string
		seed     uint64
		seconds  int
		trace    int
		root     string
	)
	flag.StringVar(&workload, "workload", "", "workload name: sweep-complete, study-sparse or serve-mix")
	flag.Uint64Var(&seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 10, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&root, "root", ".", "checkout root holding the passivespread go.mod")
	flag.Parse()

	w, ok := workloads[workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "fetbench: bad arguments (workload %q, seconds %d, trace %d)\n", workload, seconds, trace)
		return 2
	}
	absRoot, err := filepath.Abs(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fetbench: %v\n", err)
		return 2
	}
	spec, err := loadSpec(absRoot)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fetbench: %v\n", err)
		return 2
	}
	base := filepath.Join(absRoot, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "fetbench: %v\n", err)
		return 2
	}
	work, err := os.MkdirTemp(base, "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "fetbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(work)

	r := &run{
		workload: workload,
		seed:     seed,
		seconds:  time.Duration(seconds) * time.Second,
		workers:  runtime.NumCPU(),
		root:     absRoot,
		work:     work,
		values:   map[string]float64{},
	}
	r.prov = provenance(r)
	runner := w.timed
	if trace == 1 {
		r.tr = newTracer(fmt.Sprintf("%s-seed%d", workload, seed))
		runner = w.traced
	}
	if err := runner(r); err != nil {
		fmt.Fprintf(os.Stderr, "fetbench: %s: %v\n", workload, err)
		return 1
	}
	if r.tr != nil {
		r.set("fail_ratio", float64(r.failed)/float64(max(r.attempted, 1)))
		path := filepath.Join(base, "traces", r.tr.run+".jsonl")
		if err := r.tr.write(path, r.prov); err != nil {
			fmt.Fprintf(os.Stderr, "fetbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "fetbench: %d spans written to %s\n", len(r.tr.spans), path)
	}
	if r.attempted < 1 {
		fmt.Fprintf(os.Stderr, "fetbench: %s attempted no operations\n", workload)
		return 1
	}
	for _, m := range r.mismatches {
		fmt.Fprintf(os.Stderr, "fetbench: check failed: %s\n", m)
	}
	metrics, err := spec.selectMetrics(r.values, r.tr != nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fetbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(map[string]interface{}{"provenance": r.prov})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fetbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	out, err := json.Marshal(result{
		Correct:   len(r.mismatches) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fetbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// provenance describes the host and code a result was measured on. The
// open-loop workload adds its rates and generator lateness to it.
func provenance(r *run) map[string]interface{} {
	return map[string]interface{}{
		"workload":      r.workload,
		"seed":          r.seed,
		"seconds":       r.seconds.Seconds(),
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceDigest(r.root),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git work tree.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources and go.mod, so results
// from checkouts without git history still name the code they measured.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, rel+"\x00")
		fh, err := os.Open(f)
		if err != nil {
			return "unknown"
		}
		_, err = io.Copy(h, fh)
		fh.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
