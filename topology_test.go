package passivespread

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseTopologyRoundTripAndErrors(t *testing.T) {
	for _, spec := range []string{
		"complete", "ring:2", "torus", "random-regular:8", "small-world:4:0.1", "dynamic:8:0.2",
	} {
		tp, err := ParseTopology(spec)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", spec, err)
		}
		if got := TopologyName(tp); got != spec {
			t.Errorf("ParseTopology(%q).Name() = %q", spec, got)
		}
	}
	for _, spec := range []string{"", "mesh", "ring:x", "small-world:4:7", "complete:1"} {
		_, err := ParseTopology(spec)
		if err == nil {
			t.Errorf("ParseTopology(%q) accepted", spec)
		} else if !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("ParseTopology(%q) error %v does not wrap ErrInvalidOptions", spec, err)
		}
	}
}

// TestTopologyEngineIncompatibilitiesUpFront: engine/topology conflicts
// must fail at Options/StudySpec/SweepSpec validation with typed
// ErrInvalidOptions — never from inside a worker mid-batch.
func TestTopologyEngineIncompatibilitiesUpFront(t *testing.T) {
	for _, engine := range []EngineKind{EngineAggregate, EngineMarkovChain} {
		_, err := NewStudy(StudySpec{
			Replicates: 4,
			Options:    Options{N: 1024, Engine: engine, Topology: SmallWorld(4, 0.1)},
		})
		if err == nil {
			t.Fatalf("NewStudy accepted %s × small-world", EngineName(engine))
		}
		if !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("%s × small-world error %v does not wrap ErrInvalidOptions", EngineName(engine), err)
		}
	}
	if _, err := Disseminate(Options{N: 1024, Engine: EngineAggregate, Topology: Ring(2)}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("Disseminate aggregate × ring error: %v", err)
	}

	// Sweep axis crosses reject the whole grid up front.
	_, err := NewSweep(SweepSpec{
		Ns:         []int{1024},
		Engines:    []EngineKind{EngineAgentFast, EngineMarkovChain},
		Topologies: []Topology{CompleteTopology(), RandomRegular(8)},
		Replicates: 2,
	})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("chain × sparse sweep error: %v", err)
	}
	// Custom-runner scenarios define their own scheduling.
	async, ok := ScenarioByName("async")
	if !ok {
		t.Fatal("async not registered")
	}
	_, err = NewSweep(SweepSpec{
		Ns:         []int{1024},
		Scenarios:  []Scenario{async},
		Topologies: []Topology{RandomRegular(8)},
		Replicates: 2,
	})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("async × sparse sweep error: %v", err)
	}
	// A scenario that pins its own topology cannot cross the axis.
	sparse, ok := ScenarioByName("sparse-regular")
	if !ok {
		t.Fatal("sparse-regular not registered")
	}
	_, err = NewSweep(SweepSpec{
		Ns:         []int{1024},
		Scenarios:  []Scenario{sparse},
		Topologies: []Topology{Ring(2)},
		Replicates: 2,
	})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("pinned-topology scenario × axis error: %v", err)
	}
	// A topology the population cannot carry fails at NewStudy.
	_, err = NewStudy(StudySpec{Replicates: 1, Options: Options{N: 1000, Topology: Torus()}})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("torus over non-square n error: %v", err)
	}
}

// TestSparseTopologyParallelBitIdentical: the root-level acceptance bar —
// EngineAgentParallel must be byte-identical to EngineAgentFast at any
// Parallelism on a non-complete topology (neighbor-list construction and
// per-round rewiring included).
func TestSparseTopologyParallelBitIdentical(t *testing.T) {
	for _, tp := range []Topology{RandomRegular(8), DynamicRewire(8, 0.3)} {
		base := Options{
			N:                2048,
			Seed:             5,
			Topology:         tp,
			MaxRounds:        300,
			RecordTrajectory: true,
		}
		ref, err := Disseminate(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 8} {
			opts := base
			opts.Engine = EngineAgentParallel
			opts.Parallelism = workers
			got, err := Disseminate(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("%s: parallelism %d diverged from fast", TopologyName(tp), workers)
			}
		}
	}
}

// TestTopologySweepDeterministicAcrossWorkers: a sweep over the topology
// axis must render byte-identical CSV at every worker count — the
// end-to-end form of the acceptance criterion "deterministic CSV output
// at any -workers value".
func TestTopologySweepDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		sweep, err := NewSweep(SweepSpec{
			Ns:         []int{256},
			Topologies: []Topology{CompleteTopology(), RandomRegular(8), SmallWorld(4, 0.1), DynamicRewire(8, 0.2), Ring(2)},
			Replicates: 6,
			Workers:    workers,
			Seed:       11,
			MaxRounds:  200,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sweep.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep.CSV()
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); got != ref {
			t.Fatalf("sweep CSV differs between 1 and %d workers:\n%s\nvs\n%s", workers, ref, got)
		}
	}
	// The topology column must carry the canonical parseable names.
	rows, err := ParseSweepCSV(strings.NewReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	wantTopos := []string{"complete", "random-regular:8", "small-world:4:0.1", "dynamic:8:0.2", "ring:2"}
	for i, row := range rows {
		if row.Topology != wantTopos[i] {
			t.Fatalf("row %d topology %q, want %q", i, row.Topology, wantTopos[i])
		}
		if _, err := ParseTopology(row.Topology); err != nil {
			t.Fatalf("row %d topology %q does not parse back: %v", i, row.Topology, err)
		}
	}
}

// TestSparseScenarioPresetsRunEndToEnd: every sparse-* preset must run
// through the default sweep path (success is not asserted — the ring's
// diameter makes non-convergence at a tight cap a legitimate finding).
func TestSparseScenarioPresetsRunEndToEnd(t *testing.T) {
	names := []string{"sparse-regular", "sparse-ring", "sparse-small-world", "sparse-dynamic"}
	scenarios := make([]Scenario, 0, len(names))
	for _, name := range names {
		sc, ok := ScenarioByName(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		scenarios = append(scenarios, sc)
	}
	sweep, err := NewSweep(SweepSpec{
		Ns:         []int{256},
		Scenarios:  scenarios,
		Replicates: 3,
		Seed:       4,
		MaxRounds:  120,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sweep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rep.Rows {
		if row.Err != "" {
			t.Errorf("scenario %s failed: %s", row.Scenario, row.Err)
		}
		wantTopo := map[string]string{
			"sparse-regular":     "random-regular:8",
			"sparse-ring":        "ring:2",
			"sparse-small-world": "small-world:4:0.1",
			"sparse-dynamic":     "dynamic:8:0.2",
		}[names[i]]
		if row.Topology != wantTopo {
			t.Errorf("scenario %s reports topology %q, want %q", row.Scenario, row.Topology, wantTopo)
		}
	}
}

// buildCLITools compiles fetsim and fetsweep into a temp dir once per
// golden test run.
func buildCLITools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("golden CLI tests build binaries; skipped in -short")
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir, "./cmd/fetsim", "./cmd/fetsweep")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building CLI tools: %v\n%s", err, out)
	}
	return dir
}

// goldenGOMAXPROCS are the GOMAXPROCS values every golden CLI run is
// repeated under: the goldens pin stdout, which must carry no
// host-derived value such as the default worker count.
var goldenGOMAXPROCS = []int{1, 4}

// execCLI runs a built CLI tool with GOMAXPROCS=procs and returns its
// stdout and exit code. Stderr stays out of the returned bytes — it may
// report host-derived values — and is shown only when the run fails.
func execCLI(t *testing.T, procs int, bin string, args ...string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return out, 0
	case errors.As(err, &ee) && ee.ExitCode() == 1:
		return out, 1
	}
	t.Fatalf("%s %v at GOMAXPROCS=%d: %v\n%s%s", filepath.Base(bin), args, procs, err, out, stderr.Bytes())
	return nil, 0
}

// runCLIStrict is execCLI for runs that must exit 0.
func runCLIStrict(t *testing.T, procs int, bin string, args ...string) []byte {
	t.Helper()
	out, code := execCLI(t, procs, bin, args...)
	if code != 0 {
		t.Fatalf("%s %v at GOMAXPROCS=%d exited %d\n%s", filepath.Base(bin), args, procs, code, out)
	}
	return out
}

// TestGoldenFetsimByteIdentical: the default-topology regression guard.
// testdata/golden_fetsim.txt was captured from the pre-topology tree at
// fixed seeds; the refactored fetsim must reproduce it byte for byte —
// no silent RNG-stream reshuffle for existing users — at any GOMAXPROCS.
func TestGoldenFetsimByteIdentical(t *testing.T) {
	bin := buildCLITools(t)
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_fetsim.txt"))
	if err != nil {
		t.Fatal(err)
	}
	goldenTraj, err := os.ReadFile(filepath.Join("testdata", "golden_fetsim_traj.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range goldenGOMAXPROCS {
		out := runCLIStrict(t, procs, filepath.Join(bin, "fetsim"),
			"-n", "1024", "-seed", "7", "-replicates", "8")
		if !bytes.Equal(out, golden) {
			t.Fatalf("GOMAXPROCS=%d: fetsim output diverged from the pre-topology golden:\n--- golden\n%s\n--- got\n%s", procs, golden, out)
		}
		out = runCLIStrict(t, procs, filepath.Join(bin, "fetsim"),
			"-n", "512", "-seed", "3", "-trajectory")
		if !bytes.Equal(out, goldenTraj) {
			t.Fatalf("GOMAXPROCS=%d: fetsim trajectory diverged from the pre-topology golden (full x_t stream reshuffled)", procs)
		}
	}
}

// TestGoldenFetsweepByteIdentical: same guard for fetsweep CSV. The
// topology schema change is the one visible difference (a new "topology"
// column always rendering "complete" for uniform-mixing sweeps), so the
// comparison strips that column and requires everything else —
// cell indices, derived seeds, every statistic — byte-identical.
func TestGoldenFetsweepByteIdentical(t *testing.T) {
	bin := buildCLITools(t)
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_fetsweep_complete.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range goldenGOMAXPROCS {
		out := runCLIStrict(t, procs, filepath.Join(bin, "fetsweep"),
			"-ns", "256,1024", "-trials", "8", "-scenarios", "worst-case,noisy",
			"-seed", "9", "-workers", "4", "-format", "csv")
		stripped, err := stripCSVColumn(out, "topology")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stripped, golden) {
			t.Fatalf("GOMAXPROCS=%d: fetsweep CSV (minus the topology column) diverged from the pre-topology golden:\n--- golden\n%s\n--- got\n%s",
				procs, golden, stripped)
		}
	}
}

// stripCSVColumn removes the named column from simple (unquoted) CSV
// bytes, erroring if the header does not contain it.
func stripCSVColumn(data []byte, col string) ([]byte, error) {
	var b strings.Builder
	sc := bufio.NewScanner(bytes.NewReader(data))
	drop := -1
	for lineNo := 0; sc.Scan(); lineNo++ {
		fields := strings.Split(sc.Text(), ",")
		if lineNo == 0 {
			for i, f := range fields {
				if f == col {
					drop = i
				}
			}
			if drop < 0 {
				return nil, fmt.Errorf("column %q not in header %q", col, sc.Text())
			}
		}
		if drop >= len(fields) {
			return nil, fmt.Errorf("row %d has %d fields, drop index %d", lineNo, len(fields), drop)
		}
		kept := append(append([]string{}, fields[:drop]...), fields[drop+1:]...)
		b.WriteString(strings.Join(kept, ","))
		b.WriteByte('\n')
	}
	return []byte(b.String()), sc.Err()
}

// TestGoldenStudyAggregatesUnchanged: a library-level guard that does
// not shell out — the Study aggregates at the golden parameters must
// match the numbers recorded in the pre-topology capture.
func TestGoldenStudyAggregatesUnchanged(t *testing.T) {
	study, err := NewStudy(StudySpec{
		Replicates: 8,
		Options:    Options{N: 1024, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := study.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	conv := rep.Convergence
	if conv.Converged != 8 {
		t.Fatalf("converged %d/8, golden capture had 8/8", conv.Converged)
	}
	for name, got := range map[string]float64{
		"mean":   conv.Rounds.Mean,
		"median": conv.Rounds.Median,
		"p95":    conv.Rounds.P95,
		"max":    conv.Rounds.Max,
	} {
		if got != 4 {
			t.Fatalf("%s t_con = %v, golden capture had 4 (RNG stream reshuffled?)", name, got)
		}
	}
}

// TestCompleteSweepCSVSchemaStable: the new column renders "complete"
// for uniform-mixing sweeps and the header is exactly the documented
// order (ParseSweepCSV depends on it).
func TestCompleteSweepCSVSchemaStable(t *testing.T) {
	sweep, err := NewSweep(SweepSpec{Ns: []int{64}, Replicates: 2, Seed: 1, MaxRounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sweep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(rep.CSV()), "\n")
	wantHeader := "cell,scenario,engine,topology,n,ell,seed,replicates,converged,success_rate,mean_rounds,median_rounds,p95_rounds,max_rounds,error"
	if lines[0] != wantHeader {
		t.Fatalf("CSV header %q, want %q", lines[0], wantHeader)
	}
	if fields := strings.Split(lines[1], ","); fields[3] != "complete" {
		t.Fatalf("uniform-mixing row renders topology %q, want \"complete\"", fields[3])
	}
	if cells := sweep.Cells(); cells[0].Topology != "complete" {
		t.Fatalf("cell topology %q, want \"complete\"", cells[0].Topology)
	}
}

// TestGoldenSparseTopologyByteIdentical: the sparse-topology regression
// guard for the CSR gather rewrite. The three fixtures were captured
// from the per-neighbor-draw tree at fixed seeds; the batched-RNG path
// (packed rows, bind-time whole-round popcounts, deferred homogeneous
// jumps) must reproduce every byte — the rewrite is stream-exact, not
// just distributionally equal.
func TestGoldenSparseTopologyByteIdentical(t *testing.T) {
	bin := buildCLITools(t)
	cases := []struct {
		golden string
		tool   string
		args   []string
	}{
		{"golden_sparse_fetsim.txt", "fetsim", []string{
			"-n", "1024", "-seed", "11", "-replicates", "8", "-init", "half",
			"-topology", "random-regular:8", "-rounds", "96"}},
		{"golden_sparse_fetsim_traj.txt", "fetsim", []string{
			"-n", "512", "-seed", "3", "-init", "half",
			"-topology", "dynamic:8:0.2", "-trajectory", "-rounds", "64"}},
		{"golden_sparse_fetsweep.csv", "fetsweep", []string{
			"-ns", "256,1024", "-trials", "8", "-scenarios", "worst-case",
			"-topologies", "random-regular:8,small-world:4:0.1,dynamic:8:0.2",
			"-seed", "9", "-workers", "4", "-rounds", "120", "-format", "csv"}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			// fetsim reports "not all replicates converged" through exit
			// status 1, and the sparse goldens were deliberately captured
			// at short horizons where that is the expected outcome.
			for _, procs := range goldenGOMAXPROCS {
				out, _ := execCLI(t, procs, filepath.Join(bin, tc.tool), tc.args...)
				if !bytes.Equal(out, golden) {
					t.Fatalf("GOMAXPROCS=%d: %s output diverged from the pre-rewrite golden:\n--- golden\n%s\n--- got\n%s",
						procs, tc.tool, golden, out)
				}
			}
		})
	}
}
