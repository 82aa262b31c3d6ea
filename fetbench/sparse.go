package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	ps "passivespread"
	"passivespread/internal/checkpoint"
)

// study-sparse: fixed-horizon worst-case Studies on three sparse graph
// topologies. Worst-case FET does not converge on these graphs within
// the horizon, so every replicate runs exactly sparseRounds rounds.

const (
	sparseN          = 4096
	sparseReplicates = 16
	sparseRounds     = 120
	sparseBatch      = 8
	sparsePrefix     = 2 // replicates re-run at Workers=1, Batch=1
	sparseSetups     = 5
	// sparseWarmupRounds is the horizon of the set-up's warm-up Studies.
	sparseWarmupRounds = 10
	sparseResumes      = 75
)

// sparseTopologies are the workload's graphs, keyed by metric suffix, in
// run order.
var sparseTopologies = []struct{ metric, spec string }{
	{"random_regular", "random-regular:8"},
	{"small_world", "small-world:4:0.1"},
	{"dynamic", "dynamic:8:0.2"},
}

// sparseStudy is one topology's Study within a pass.
type sparseStudy struct {
	topo  ps.Topology
	opts  ps.Options
	study *ps.Study
	key   string // canonical cell key the report is checkpointed under
	body  []byte // the report's per-replicate results, as checkpointed
}

// sparsePass is one timed pass over the three topologies.
type sparsePass struct {
	studies   []*sparseStudy
	wall, cpu float64
	doneAt    []float64 // replicate delivery times since the pass started, ms
	store     *checkpoint.Store
}

// prepareSparsePass generates pass k's inputs and prepares its Studies.
func prepareSparsePass(r *run, k int) (*sparsePass, error) {
	seed := ps.StreamSeed(r.seed, uint64(k))
	p := &sparsePass{}
	for i, ts := range sparseTopologies {
		t, err := ps.ParseTopology(ts.spec)
		if err != nil {
			return nil, err
		}
		opts := ps.Options{N: sparseN, Topology: t, MaxRounds: sparseRounds, Seed: ps.StreamSeed(seed, uint64(i))}
		s, err := newSparseStudy(opts, r.workers, sparseBatch, sparseReplicates, nil)
		if err != nil {
			return nil, err
		}
		s.key = ps.CellKey{
			Scenario: "worst-case", Engine: ps.EngineName(ps.EngineAgentFast), Topology: t.Name(),
			N: sparseN, Ell: ps.SampleSize(sparseN), Replicates: sparseReplicates, MaxRounds: sparseRounds, Seed: opts.Seed,
		}.Canonical()
		p.studies = append(p.studies, s)
	}
	store, err := checkpoint.Open(filepath.Join(r.work, fmt.Sprintf("sparse-%d", k)))
	if err != nil {
		return nil, err
	}
	p.store = store
	return p, nil
}

func newSparseStudy(opts ps.Options, workers, batch, replicates int, observe func(int) []ps.Observer) (*sparseStudy, error) {
	study, err := ps.NewStudy(ps.StudySpec{
		Replicates: replicates, Workers: workers, Batch: batch, Options: opts, Observe: observe,
	})
	if err != nil {
		return nil, err
	}
	return &sparseStudy{topo: opts.Topology, opts: opts, study: study}, nil
}

// runStudy runs s, streaming its replicates; at records each delivery
// relative to start. Checks: no replicate failed, converged, or ran
// other than exactly sparseRounds rounds.
func runStudy(r *run, s *sparseStudy, start time.Time, at *[]float64) []ps.RunResult {
	results := make([]ps.RunResult, s.study.Replicates())
	got, bad := 0, 0
	for rr := range s.study.Stream(context.Background()) {
		*at = append(*at, ms(time.Since(start)))
		results[rr.Replicate] = rr
		got++
		if rr.Err != nil {
			bad++
			continue
		}
		r.check(rr.Result.Rounds == sparseRounds && !rr.Result.Converged,
			"%s replicate %d: ran %d rounds (converged %v), want exactly %d",
			s.topo.Name(), rr.Replicate, rr.Result.Rounds, rr.Result.Converged, sparseRounds)
	}
	r.attempt(len(results), bad+len(results)-got)
	return results
}

// run executes the prepared pass and checkpoints each Study's results.
func (p *sparsePass) run(r *run) error {
	m := begin()
	for _, s := range p.studies {
		var err error
		if s.body, err = json.Marshal(runStudy(r, s, m.start, &p.doneAt)); err != nil {
			return err
		}
		if err := p.store.Save(s.key, s.body); err != nil {
			return err
		}
	}
	p.wall, p.cpu = m.end()
	return nil
}

// resume reloads every Study's results from the pass's checkpoints; they
// must decode to the bytes that were saved.
func (p *sparsePass) resume(r *run) float64 {
	t := time.Now()
	for _, s := range p.studies {
		body, ok := p.store.Load(s.key)
		var results []ps.RunResult
		if ok {
			ok = json.Unmarshal(body, &results) == nil && len(results) == sparseReplicates
		}
		r.check(ok && string(body) == string(s.body), "%s: checkpointed results did not load back", s.topo.Name())
	}
	return time.Since(t).Seconds()
}

// sparseReference re-runs the first sparsePrefix replicates of each of
// pass p's Studies at Workers=1, Batch=1: replicate i's seed depends
// only on (root, i), so the prefix must be byte-identical.
func sparseReference(r *run, p *sparsePass) error {
	for _, s := range p.studies {
		ref, err := newSparseStudy(s.opts, 1, 1, sparsePrefix, nil)
		if err != nil {
			return err
		}
		rep, err := ref.study.Run(context.Background())
		if err != nil {
			return err
		}
		var full []ps.RunResult
		if err := json.Unmarshal(s.body, &full); err != nil {
			return err
		}
		want, err := json.Marshal(full[:sparsePrefix])
		if err != nil {
			return err
		}
		got, err := json.Marshal(rep.Results)
		if err != nil {
			return err
		}
		r.check(string(got) == string(want), "%s: replicates 0..%d at Workers=1 Batch=1 differ",
			s.topo.Name(), sparsePrefix-1)
	}
	return nil
}

// sparseWarmup runs each of pass p's Studies briefly (two replicates of
// sparseWarmupRounds rounds, including the graph builds), so executor
// pools and the heap have grown before the first timed pass.
func sparseWarmup(r *run, p *sparsePass) error {
	for _, s := range p.studies {
		opts := s.opts
		opts.MaxRounds = sparseWarmupRounds
		w, err := newSparseStudy(opts, r.workers, sparseBatch, 2, nil)
		if err != nil {
			return err
		}
		if _, err := w.study.Run(context.Background()); err != nil {
			return err
		}
	}
	return nil
}

func sparseTimed(r *run) error {
	var passes []*sparsePass
	var setup []float64
	for k := 0; k < sparseSetups; k++ {
		t0 := time.Now()
		p, err := prepareSparsePass(r, k)
		if err != nil {
			return err
		}
		if err := sparseWarmup(r, p); err != nil {
			return err
		}
		passes = append(passes, p)
		setup = append(setup, time.Since(t0).Seconds())
	}
	var wall, cpu, p50 []float64
	deadline := time.Now().Add(r.seconds)
	for k := 0; k < 2 || time.Now().Before(deadline); k++ {
		if k == len(passes) {
			p, err := prepareSparsePass(r, k)
			if err != nil {
				return err
			}
			passes = append(passes, p)
		}
		p := passes[k]
		runtime.GC() // start every pass from the same heap state
		if err := p.run(r); err != nil {
			return err
		}
		wall = append(wall, p.wall)
		cpu = append(cpu, p.cpu)
		p50 = append(p50, median(p.doneAt))
	}
	r.set("peak_rss_mb", peakRSSMB())
	var resume []float64
	for i := 0; i < sparseResumes; i++ {
		runtime.GC()
		resume = append(resume, passes[i%len(wall)].resume(r))
	}
	if err := sparseReference(r, passes[0]); err != nil {
		return err
	}
	r.set("setup_s", median(setup))
	r.set("wall_s", median(wall))
	r.set("cpu_s", median(cpu))
	r.set("resume_s", median(resume))
	r.set("result.p50_ms", median(p50))
	r.set("goodput_per_s", float64(len(sparseTopologies)*sparseReplicates)/median(wall))
	return nil
}

// sparseTraced runs pass 0, which also warms up, then its Studies again
// untraced and traced, with spans around every Study and replicate,
// then the layer probes on the workload's graphs. The tracing overhead
// compares the last two, which do the same work from the same state.
func sparseTraced(r *run) error {
	root := r.tr.reserve(0, "workload", time.Now())
	p, err := prepareSparsePass(r, 0)
	if err != nil {
		return err
	}
	if err := p.run(r); err != nil {
		return err
	}
	runtime.GC()
	plain := begin()
	var plainAt []float64
	for _, s := range p.studies {
		u, err := newSparseStudy(s.opts, r.workers, sparseBatch, sparseReplicates, nil)
		if err != nil {
			return err
		}
		runStudy(r, u, plain.start, &plainAt)
	}
	untraced, _ := plain.end()

	runtime.GC()
	var stats []repStats
	var reps []float64
	busy := 0.0
	m := begin()
	var at []float64
	for _, s := range p.studies {
		st := newStudyTrace(sparseReplicates)
		ts, err := newSparseStudy(s.opts, r.workers, sparseBatch, sparseReplicates, st.observe)
		if err != nil {
			return err
		}
		start := time.Now()
		results := runStudy(r, ts, m.start, &at)
		id := r.tr.add(root, "study", start, time.Now(), map[string]string{"topology": s.topo.Name()})
		body, err := json.Marshal(results)
		if err != nil {
			return err
		}
		r.check(string(body) == string(s.body), "%s: traced Study results differ from untraced", s.topo.Name())
		for _, rs := range st.breakdown(r.tr, id, sparseBatch, sparseN) {
			span := rs.end.Sub(rs.start)
			reps = append(reps, ms(span))
			busy += span.Seconds() / float64(rs.width)
			stats = append(stats, rs)
		}
	}
	traced, _ := m.end()
	r.set("trace.overhead_share", (traced-untraced)/untraced)
	r.set("study.replicate_ms.p50", quantile(reps, 0.5))
	r.set("study.replicate_ms.p90", quantile(reps, 0.9))
	r.set("study.busy_share", busy/(float64(r.workers)*traced))
	setSimMetrics(r, stats)

	bytes, err := dirBytes(filepath.Join(r.work, "sparse-0"))
	if err != nil {
		return err
	}
	r.set("checkpoint.bytes_per_cell", float64(bytes)/float64(len(p.studies)))
	failed := r.failed
	p.resume(r)
	r.set("checkpoint.hits", float64(len(p.studies)-(r.failed-failed)))

	var topos []probeTopology
	var keys []string
	for i, s := range p.studies {
		topos = append(topos, probeTopology{sparseTopologies[i].metric, s.topo})
		keys = append(keys, s.key)
	}
	err = probeLayers(r, root, probeParams{
		n: sparseN, ell: ps.SampleSize(sparseN), topologies: topos, keys: keys, body: p.studies[0].body,
	})
	r.tr.close(root, time.Now(), map[string]string{"workload": r.workload})
	return err
}
