// Command fetsweep runs parameter-grid sweeps over the FET simulation —
// the phase-diagram tool. It is a thin CLI over the root Sweep API: the
// cross-product of -ns × -ells × -engines × -topologies × -scenarios
// expands into grid cells, every cell runs -trials replicates, and all
// cells × replicates draw from one shared worker pool. Results are
// bit-identical for any -workers value on a fixed -seed.
//
// Usage:
//
//	fetsweep [-ns 256,1024,4096,16384] [-trials 40] [-engines fast] [-seed 42]
//	fetsweep -scenarios worst-case,noisy,trend-flip -format csv > phase.csv
//	fetsweep -ns 4096 -ells 1,2,4,8,16,24 -format json
//	fetsweep -ns 1048576,16777216 -engines aggregate,chain
//	fetsweep -ns 1024,4096 -topologies complete,random-regular:8,small-world:4:0.1
//
// -topologies selects the observation topologies (default complete, the
// paper's uniform mixing); non-complete entries run on the agent
// engines (plus aggregate-sparse for random-regular and dynamic) and
// answer "does FET's trend-following survive sparse structure?" as a
// sweepable axis.
//
// -engines selects the executors: fast (sequential agent engine),
// parallel (sharded agent engine), aggregate (occupancy-vector engine),
// aggregate-sparse (its degree-annealed analogue for random-regular and
// dynamic topologies), or chain (the (K_t, K_{t+1}) Markov chain).
// aggregate, aggregate-sparse and chain scale to populations of
// hundreds of millions; -chain is kept as an alias
// for -engines chain. -scenarios names presets from the scenario
// registry (list them with `fetlab -scenarios`).
//
// The default table output appends a polylog fit of the median
// convergence times per (scenario, engine) group spanning ≥ 2
// population sizes — the Theorem 1 shape check. -format csv and
// -format json emit the machine-readable artifacts instead.
//
// The sweep fabric flags distribute one grid across a fleet:
//
//	fetsweep -ns 256,1024 -shard 1/4 -checkpoint ckpt -format shard > shard-1.json
//
// -shard i/m runs only the cells c with c mod m == i-1 — same grid,
// same cell indices, same seeds — so m runners' outputs join via
// `fetmerge` into bytes identical to a single run. -checkpoint makes
// each completed cell durable (atomic envelopes keyed by the cell's
// canonical key hash): a killed run re-invoked with the same flags and
// directory resumes mid-grid, skipping finished cells. -format shard
// emits the mergeable artifact (rows plus per-cell keys and digests)
// that `fetmerge -verify` checks and joins.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"passivespread"
)

func main() {
	var (
		nsFlag     = flag.String("ns", "256,1024,4096,16384,65536", "comma-separated population sizes")
		ellsFlag   = flag.String("ells", "", "comma-separated per-half sample sizes (0 or empty = ⌈c·log₂ n⌉)")
		engines    = flag.String("engines", "fast", "comma-separated engines: fast, exact, parallel, aggregate, aggregate-sparse, chain")
		topologies = flag.String("topologies", "complete", "comma-separated observation topologies: complete, ring[:k], torus, random-regular[:k], small-world[:k[:beta]], dynamic[:k[:p]]")
		scenarios  = flag.String("scenarios", passivespread.DefaultScenario, "comma-separated scenario names (see `fetlab -scenarios`)")
		trials     = flag.Int("trials", 40, "replicates per grid cell")
		workers    = flag.Int("workers", 0, "shared worker pool for the whole grid (0 = GOMAXPROCS)")
		batch      = flag.Int("batch", 0, "lockstep width: replicates per lockstep batch within a cell (0 or 1 = off, max 64; never changes results)")
		rounds     = flag.Int("rounds", 0, "round cap per cell (0 = 400·log₂ n)")
		seed       = flag.Uint64("seed", 42, "root random seed")
		c          = flag.Float64("c", passivespread.DefaultC, "sample-size constant: ℓ = ⌈c·log₂ n⌉")
		format     = flag.String("format", "table", "output format: table, csv, json or shard")
		chain      = flag.Bool("chain", false, "alias for -engines chain")
		shard      = flag.String("shard", "", `run one deterministic grid slice: "i/m" (shard i of m, 1-based)`)
		ckptDir    = flag.String("checkpoint", "", "durable per-cell checkpoint directory (resume mid-grid after a kill)")
	)
	flag.Parse()

	if *chain {
		enginesSet := false
		flag.Visit(func(f *flag.Flag) { enginesSet = enginesSet || f.Name == "engines" })
		if enginesSet && *engines != "chain" {
			fatalf(2, "-chain conflicts with -engines %s", *engines)
		}
		*engines = "chain"
	}

	ns, err := parseNs(*nsFlag)
	if err != nil {
		fatalf(2, "%v", err)
	}
	ells, err := parseElls(*ellsFlag)
	if err != nil {
		fatalf(2, "%v", err)
	}
	engineKinds, err := parseEngines(*engines)
	if err != nil {
		fatalf(2, "%v", err)
	}
	topologyList, err := parseTopologies(*topologies)
	if err != nil {
		fatalf(2, "%v", err)
	}
	scenarioList, err := parseScenarios(*scenarios)
	if err != nil {
		fatalf(2, "%v", err)
	}
	switch *format {
	case "table", "csv", "json", "shard":
	default:
		fatalf(2, "unknown format %q (want table, csv, json or shard)", *format)
	}
	var shardSel passivespread.Shard
	if *shard != "" {
		shardSel, err = passivespread.ParseShard(*shard)
		if err != nil {
			fatalf(2, "-shard: %v", err)
		}
	}

	sweep, err := passivespread.NewSweep(passivespread.SweepSpec{
		Ns:            ns,
		Ells:          ells,
		C:             *c,
		Engines:       engineKinds,
		Topologies:    topologyList,
		Scenarios:     scenarioList,
		Replicates:    *trials,
		Workers:       *workers,
		Batch:         *batch,
		Seed:          *seed,
		MaxRounds:     *rounds,
		Shard:         shardSel,
		CheckpointDir: *ckptDir,
	})
	if err != nil {
		fatalf(2, "%v", err)
	}

	if *batch > 1 {
		warnRefusals(sweep.Cells(), *batch)
	}

	report, err := sweep.Run(context.Background())
	if err != nil {
		fatalf(1, "%v", err)
	}

	switch *format {
	case "csv":
		if err := report.WriteCSV(os.Stdout); err != nil {
			fatalf(1, "%v", err)
		}
	case "json":
		data, err := report.JSON()
		if err != nil {
			fatalf(1, "%v", err)
		}
		fmt.Printf("%s\n", data)
	case "shard":
		artifact, err := sweep.ShardArtifact(report)
		if err != nil {
			fatalf(1, "%v", err)
		}
		data, err := artifact.JSON()
		if err != nil {
			fatalf(1, "%v", err)
		}
		fmt.Printf("%s\n", data)
	default: // "table", validated before the sweep ran
		printTable(report, ns)
	}
}

// warnRefusals prints one stderr line naming why the lockstep executor
// refuses some of the grid's cells (they run one replicate at a time).
func warnRefusals(cells []passivespread.SweepCell, batch int) {
	refused := 0
	var reasons []string
	for _, c := range cells {
		if r := c.LockstepRefusal; r != "" {
			refused++
			if !slices.Contains(reasons, r) {
				reasons = append(reasons, r)
			}
		}
	}
	if refused > 0 {
		fmt.Fprintf(os.Stderr, "fetsweep: -batch %d: the lockstep executor refuses %d of %d cells (%s); their replicates run one at a time\n",
			batch, refused, len(cells), strings.Join(reasons, ", "))
	}
}

func printTable(report *passivespread.SweepReport, ns []int) {
	fmt.Printf("FET parameter sweep: %d cells × %d replicates\n\n", report.Cells, report.Replicates)
	tab := passivespread.NewTable("scenario", "engine", "topology", "n", "ℓ", "trials", "converged", "mean", "median", "p95", "max")
	for _, row := range report.Rows {
		tab.AddRow(row.Scenario, row.Engine, row.Topology, row.N, row.Ell, row.Replicates,
			fmt.Sprintf("%d/%d", row.Converged, row.Replicates),
			row.Mean, row.Median, row.P95, row.Max)
	}
	fmt.Print(tab.String())

	// Polylog fits per (scenario, engine, topology) group spanning ≥ 2
	// population sizes: the Theorem 1 shape check, t_con ≈ a·(ln n)^b.
	if len(ns) < 2 {
		return
	}
	type group struct{ scenario, engine, topology string }
	medians := map[group]map[int]float64{}
	var order []group
	for _, row := range report.Rows {
		g := group{row.Scenario, row.Engine, row.Topology}
		if medians[g] == nil {
			medians[g] = map[int]float64{}
			order = append(order, g)
		}
		// With an ℓ axis, keep the first (default-ℓ) cell per n.
		if _, dup := medians[g][row.N]; !dup {
			medians[g][row.N] = row.Median
		}
	}
	fmt.Println()
	for _, g := range order {
		if len(medians[g]) < 2 {
			continue
		}
		times := make([]float64, 0, len(ns))
		fitNs := make([]int, 0, len(ns))
		for _, n := range ns {
			if m, ok := medians[g][n]; ok {
				fitNs = append(fitNs, n)
				times = append(times, m)
			}
		}
		fit := passivespread.FitPolylog(fitNs, times)
		fmt.Printf("polylog fit [%s/%s/%s]: t_con ≈ %.2f·(ln n)^%.2f (R² = %.3f); paper bound exponent 5/2\n",
			g.scenario, g.engine, g.topology, fit.Coefficient, fit.Exponent, fit.R2)
	}
}

// parseNs parses the population axis strictly: every entry must be a
// distinct integer ≥ 2. Empty, duplicate, or non-positive entries are
// rejected with a pointed error instead of silently producing a
// degenerate grid.
func parseNs(s string) ([]int, error) {
	return parseIntAxis("-ns", s, 2)
}

// parseElls parses the sample-size axis: distinct integers ≥ 0, where 0
// selects the default ℓ(n). An empty flag means "default only".
func parseElls(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	return parseIntAxis("-ells", s, 0)
}

// parseIntAxis parses a comma-separated list of distinct integers ≥ min.
func parseIntAxis(flagName, s string, min int) ([]int, error) {
	parts := strings.Split(s, ",")
	seen := make(map[int]bool, len(parts))
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("%s: empty entry in %q", flagName, s)
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("%s: bad entry %q (want an integer)", flagName, p)
		}
		if v < min {
			return nil, fmt.Errorf("%s: entry %d out of range (want ≥ %d)", flagName, v, min)
		}
		if seen[v] {
			return nil, fmt.Errorf("%s: duplicate entry %d", flagName, v)
		}
		seen[v] = true
		out = append(out, v)
	}
	return out, nil
}

func parseEngines(s string) ([]passivespread.EngineKind, error) {
	parts := strings.Split(s, ",")
	seen := make(map[passivespread.EngineKind]bool, len(parts))
	out := make([]passivespread.EngineKind, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("-engines: empty entry in %q", s)
		}
		kind, err := passivespread.ParseEngine(p)
		if err != nil {
			return nil, fmt.Errorf("-engines: unknown engine %q", p)
		}
		if seen[kind] {
			return nil, fmt.Errorf("-engines: duplicate engine %q", p)
		}
		seen[kind] = true
		out = append(out, kind)
	}
	return out, nil
}

// parseTopologies parses the topology axis strictly: every entry must be
// a well-formed topology spec (passivespread.ParseTopology grammar) and
// distinct by canonical name. Empty or duplicate entries are rejected.
func parseTopologies(s string) ([]passivespread.Topology, error) {
	parts := strings.Split(s, ",")
	seen := make(map[string]bool, len(parts))
	out := make([]passivespread.Topology, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("-topologies: empty entry in %q", s)
		}
		tp, err := passivespread.ParseTopology(p)
		if err != nil {
			return nil, fmt.Errorf("-topologies: %v", err)
		}
		name := passivespread.TopologyName(tp)
		if seen[name] {
			return nil, fmt.Errorf("-topologies: duplicate topology %q", name)
		}
		seen[name] = true
		out = append(out, tp)
	}
	return out, nil
}

func parseScenarios(s string) ([]passivespread.Scenario, error) {
	parts := strings.Split(s, ",")
	seen := make(map[string]bool, len(parts))
	out := make([]passivespread.Scenario, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("-scenarios: empty entry in %q", s)
		}
		sc, ok := passivespread.ScenarioByName(p)
		if !ok {
			return nil, fmt.Errorf("-scenarios: unknown scenario %q (list them with `fetlab -scenarios`)", p)
		}
		if seen[p] {
			return nil, fmt.Errorf("-scenarios: duplicate scenario %q", p)
		}
		seen[p] = true
		out = append(out, sc)
	}
	return out, nil
}

func fatalf(code int, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}
