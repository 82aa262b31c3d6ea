package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	ps "passivespread"
)

// sweep-complete: the paper's scaling grid (E01-shaped) as a closed
// batch on the complete topology, checkpointed, with a resume pass.

const (
	sweepReplicates = 64
	sweepBatch      = 8
)

var (
	sweepNs        = []int{1024, 4096, 16384}
	sweepScenarios = []string{"worst-case", "half-split", "uniform", "noisy"}
	sweepEngines   = []ps.EngineKind{ps.EngineAgentFast, ps.EngineAggregate}
)

// sweepSpec generates pass k's grid: the fixed axes with a seed derived
// from the run seed and k, without checkpoints.
func sweepSpec(r *run, k int, workers, batch int) (ps.SweepSpec, error) {
	scs := make([]ps.Scenario, len(sweepScenarios))
	for i, name := range sweepScenarios {
		sc, ok := ps.ScenarioByName(name)
		if !ok {
			return ps.SweepSpec{}, fmt.Errorf("scenario %q is not registered", name)
		}
		scs[i] = sc
	}
	return ps.SweepSpec{
		Ns:         sweepNs,
		Engines:    sweepEngines,
		Scenarios:  scs,
		Replicates: sweepReplicates,
		Workers:    workers,
		Batch:      batch,
		Seed:       ps.StreamSeed(r.seed, uint64(k)),
	}, nil
}

// sweepPass is one timed grid pass.
type sweepPass struct {
	spec      ps.SweepSpec
	sw        *ps.Sweep
	wall, cpu float64
	resume    []float64
	p50       float64 // median row delivery time since the pass started, ms
	cells     int
	hits      int // checkpoints the resumes loaded without re-running
	csv       string
}

// prepareSweepPass generates pass k's inputs, with a fresh checkpoint
// directory, and prepares its Sweep: the set-up a sweep user pays before
// any cell runs.
func prepareSweepPass(r *run, k int) (*sweepPass, error) {
	spec, err := sweepSpec(r, k, r.workers, sweepBatch)
	if err != nil {
		return nil, err
	}
	spec.CheckpointDir = filepath.Join(r.work, fmt.Sprintf("sweep-%d", k))
	if err := os.MkdirAll(spec.CheckpointDir, 0o755); err != nil {
		return nil, err
	}
	sw, err := ps.NewSweep(spec)
	if err != nil {
		return nil, err
	}
	return &sweepPass{spec: spec, sw: sw}, nil
}

// sweepWarmup runs pass k's grid once at one lockstep batch per cell,
// without checkpoints, so executor pools, tables and the heap have grown
// before the first timed pass.
func sweepWarmup(r *run, k int) error {
	spec, err := sweepSpec(r, k, r.workers, sweepBatch)
	if err != nil {
		return err
	}
	spec.Replicates = sweepBatch
	sw, err := ps.NewSweep(spec)
	if err != nil {
		return err
	}
	_, err = sw.Run(context.Background())
	return err
}

// sweepResumes is how many times each pass is resumed from its
// checkpoints; resume_s is their median.
const sweepResumes = 15

// run executes the prepared pass, then resumes it from its checkpoints.
// Checks: every cell delivered without error, worst-case cells all
// converged, every resume byte-identical and served wholly from
// checkpoints.
func (p *sweepPass) run(r *run, k int) error {
	m := begin()
	rep := &ps.SweepReport{Cells: len(p.sw.Cells()), Replicates: p.sw.Replicates()}
	var at []float64
	for row := range p.sw.Stream(context.Background()) {
		at = append(at, ms(time.Since(m.start)))
		rep.Rows = append(rep.Rows, row)
	}
	p.wall, p.cpu = m.end()
	p.p50 = median(at)
	p.cells = rep.Cells

	sort.Slice(rep.Rows, func(i, j int) bool { return rep.Rows[i].Cell < rep.Rows[j].Cell })
	bad := rep.Cells - len(rep.Rows)
	for _, row := range rep.Rows {
		if row.Err != "" {
			bad++
		}
		if row.Scenario == "worst-case" {
			r.check(row.SuccessRate == 1, "pass %d cell %d (worst-case n=%d %s): success rate %v, want 1",
				k, row.Cell, row.N, row.Engine, row.SuccessRate)
		}
	}
	r.attempt(rep.Cells, bad)
	r.check(p.sw.CheckpointErr() == nil, "pass %d: checkpoint error %v", k, p.sw.CheckpointErr())
	p.csv = rep.CSV()

	before, err := modTimes(p.spec.CheckpointDir)
	if err != nil {
		return err
	}
	runtime.GC()
	for i := 0; i < sweepResumes; i++ {
		t := time.Now()
		again, err := ps.NewSweep(p.spec)
		if err != nil {
			return err
		}
		rrep, err := again.Run(context.Background())
		p.resume = append(p.resume, time.Since(t).Seconds())
		r.check(err == nil && rrep.CSV() == p.csv, "pass %d: resume CSV differs from the timed pass (err %v)", k, err)
	}
	after, err := modTimes(p.spec.CheckpointDir)
	if err != nil {
		return err
	}
	p.hits = checkpointHits(before, after)
	r.check(p.hits == rep.Cells, "pass %d: resume hit %d of %d checkpoints", k, p.hits, rep.Cells)
	return nil
}

// modTimes maps each file in dir to its modification time.
func modTimes(dir string) (map[string]time.Time, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]time.Time, len(ents))
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		out[e.Name()] = info.ModTime()
	}
	return out, nil
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// checkpointHits counts checkpoint files a resume left untouched: a
// cell the resume re-ran would have been saved again.
func checkpointHits(before, after map[string]time.Time) int {
	hits := 0
	for name, t := range before {
		if u, ok := after[name]; ok && u.Equal(t) {
			hits++
		}
	}
	return hits
}

// sweepReference reruns pass 0's grid at Workers=1, Batch=1 without
// checkpoints; its CSV must equal the timed pass's.
func sweepReference(r *run, p *sweepPass) {
	spec := p.spec
	spec.Workers, spec.Batch, spec.CheckpointDir = 1, 1, ""
	sw, err := ps.NewSweep(spec)
	if err == nil {
		var rep *ps.SweepReport
		if rep, err = sw.Run(context.Background()); err == nil {
			r.check(rep.CSV() == p.csv, "pass 0: CSV at Workers=1 Batch=1 differs from Workers=%d Batch=%d",
				r.workers, sweepBatch)
			return
		}
	}
	r.check(false, "pass 0: reference run at Workers=1 Batch=1: %v", err)
}

// sweepSetups is how many passes are set up before the first runs. Set-up
// is input generation, NewSweep and a warm-up grid; setup_s is its
// median.
const sweepSetups = 5

func sweepTimed(r *run) error {
	var passes []*sweepPass
	var setup []float64
	for k := 0; k < sweepSetups; k++ {
		t0 := time.Now()
		p, err := prepareSweepPass(r, k)
		if err != nil {
			return err
		}
		if err := sweepWarmup(r, k); err != nil {
			return err
		}
		passes = append(passes, p)
		setup = append(setup, time.Since(t0).Seconds())
	}

	var wall, cpu, resume, p50 []float64
	deadline := time.Now().Add(r.seconds)
	for k := 0; k < 3 || time.Now().Before(deadline); k++ {
		if k == len(passes) {
			p, err := prepareSweepPass(r, k)
			if err != nil {
				return err
			}
			passes = append(passes, p)
		}
		p := passes[k]
		runtime.GC() // start every pass from the same heap state
		if err := p.run(r, k); err != nil {
			return err
		}
		wall = append(wall, p.wall)
		cpu = append(cpu, p.cpu)
		resume = append(resume, p.resume...)
		p50 = append(p50, p.p50)
	}
	r.set("peak_rss_mb", peakRSSMB())
	sweepReference(r, passes[0])

	r.set("setup_s", median(setup))
	r.set("wall_s", median(wall))
	r.set("cpu_s", median(cpu))
	r.set("resume_s", median(resume))
	r.set("result.p50_ms", median(p50))
	r.set("goodput_per_s", float64(passes[0].cells)/median(wall))
	return nil
}

// cellConfig rebuilds a sweep cell's replicate template through the
// public Config, so the cell can run as a Study with Observe (a Sweep
// exposes no per-replicate hook).
func cellConfig(c ps.SweepCell) (ps.Config, error) {
	sc, ok := ps.ScenarioByName(c.Scenario)
	if !ok {
		return ps.Config{}, fmt.Errorf("scenario %q is not registered", c.Scenario)
	}
	engine := -1
	for _, k := range sweepEngines {
		if ps.EngineName(k) == c.Engine {
			engine = int(k)
		}
	}
	if engine < 0 {
		return ps.Config{}, fmt.Errorf("cell %d: engine %q is not on the grid", c.Index, c.Engine)
	}
	init := sc.Init
	if init == nil {
		init = ps.AllWrong(ps.OpinionOne)
	}
	return ps.Config{
		N:             c.N,
		Sources:       1,
		Correct:       ps.OpinionOne,
		Protocol:      ps.NewFET(c.Ell),
		Init:          init,
		Engine:        ps.EngineKind(engine),
		Seed:          c.Seed,
		MaxRounds:     c.MaxRounds,
		CorruptStates: true,
		NoiseEps:      sc.NoiseEps,
	}, nil
}

// runCellStudies runs every cell of sw as its own Study (Workers =
// nproc, Batch 8), traced when st is non-nil, and returns the total
// wall time. Each Study's convergence must match the Sweep's row.
func runCellStudies(r *run, sw *ps.Sweep, rows []ps.SweepRow, parent int64, traced bool,
	onCell func(c ps.SweepCell, st *studyTrace, id int64, d time.Duration)) (float64, error) {
	t0 := time.Now()
	for _, c := range sw.Cells() {
		cfg, err := cellConfig(c)
		if err != nil {
			return 0, err
		}
		spec := ps.StudySpec{Replicates: sweepReplicates, Workers: r.workers, Batch: sweepBatch, Config: &cfg}
		var st *studyTrace
		if traced {
			st = newStudyTrace(sweepReplicates)
			spec.Observe = st.observe
		}
		start := time.Now()
		study, err := ps.NewStudy(spec)
		if err != nil {
			return 0, err
		}
		rep, err := study.Run(context.Background())
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		row := rows[c.Index]
		conv := rep.Convergence
		r.check(conv.Converged == row.Converged && conv.Rounds.Mean == row.Mean && conv.Rounds.Max == row.Max,
			"cell %d as a Study: converged %d mean %v max %v, sweep row %d %v %v",
			c.Index, conv.Converged, conv.Rounds.Mean, conv.Rounds.Max, row.Converged, row.Mean, row.Max)
		if traced {
			id := r.tr.add(parent, "study", start, start.Add(d), map[string]string{
				"cell": fmt.Sprint(c.Index), "scenario": c.Scenario, "engine": c.Engine, "n": fmt.Sprint(c.N),
			})
			onCell(c, st, id, d)
		}
	}
	return time.Since(t0).Seconds(), nil
}

// sweepTraced runs pass 0 of sweep-complete with spans around the Sweep
// and around every cell run as a traced Study, then the layer probes.
func sweepTraced(r *run) error {
	root := r.tr.reserve(0, "workload", time.Now())
	p, err := prepareSweepPass(r, 0)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := p.run(r, 0); err != nil {
		return err
	}
	r.tr.add(root, "sweep", start, start.Add(time.Duration(p.wall*1e9)),
		map[string]string{"workers": fmt.Sprint(r.workers), "batch": fmt.Sprint(sweepBatch)})
	rows, err := ps.ParseSweepCSV(strings.NewReader(p.csv))
	if err != nil {
		return err
	}

	// Parallel efficiency: the same grid at Workers=1.
	one, err := sweepSpec(r, 0, 1, sweepBatch)
	if err != nil {
		return err
	}
	sw1, err := ps.NewSweep(one)
	if err != nil {
		return err
	}
	t1 := time.Now()
	rep1, err := sw1.Run(context.Background())
	wall1 := time.Since(t1).Seconds()
	if err != nil {
		return err
	}
	r.check(rep1.CSV() == p.csv, "pass 0: CSV at Workers=1 differs from Workers=%d", r.workers)
	r.set("sweep.parallel_efficiency", wall1/(float64(r.workers)*p.wall))

	// Checkpoint footprint and resume hits of the timed pass (run checked
	// that the resumes re-saved none of them).
	bytes, err := dirBytes(p.spec.CheckpointDir)
	if err != nil {
		return err
	}
	r.set("checkpoint.bytes_per_cell", float64(bytes)/float64(p.cells))
	r.set("checkpoint.hits", float64(p.hits))

	// Untraced then traced cell Studies: the difference is the tracing
	// overhead.
	untraced, err := runCellStudies(r, p.sw, rows, root, false, nil)
	if err != nil {
		return err
	}
	var agents []repStats
	var reps, cellMs []float64
	busy := 0.0
	traced, err := runCellStudies(r, p.sw, rows, root, true, func(c ps.SweepCell, st *studyTrace, id int64, d time.Duration) {
		stats := st.breakdown(r.tr, id, sweepBatch, c.N)
		cellMs = append(cellMs, ms(d))
		for _, s := range stats {
			span := s.end.Sub(s.start)
			reps = append(reps, ms(span))
			busy += span.Seconds() / float64(s.width)
		}
		if c.Engine != ps.EngineName(ps.EngineAggregate) {
			agents = append(agents, stats...)
		}
	})
	if err != nil {
		return err
	}
	r.set("trace.overhead_share", (traced-untraced)/untraced)
	r.set("study.replicate_ms.p50", quantile(reps, 0.5))
	r.set("study.replicate_ms.p90", quantile(reps, 0.9))
	r.set("study.busy_share", busy/(float64(r.workers)*traced))
	r.set("sweep.cell_ms.p50", quantile(cellMs, 0.5))
	r.set("sweep.cell_ms.p90", quantile(cellMs, 0.9))
	setSimMetrics(r, agents)

	keys := make([]string, 0, p.cells)
	for _, k := range p.sw.CellKeys() {
		keys = append(keys, k.Canonical())
	}
	err = probeLayers(r, root, probeParams{
		n: 4096, ell: ps.SampleSize(4096), keys: keys, body: jsonBody(rows[0]),
	})
	r.tr.close(root, time.Now(), map[string]string{"workload": r.workload})
	return err
}
