package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	ps "passivespread"
	"passivespread/internal/checkpoint"
	"passivespread/internal/rng"
	"passivespread/internal/serve"
	"passivespread/internal/topo"
)

// probeParams are a workload's own parameters for the direct layer
// probes, which time exported entry points of single layers.
type probeParams struct {
	n, ell int
	// topologies are the workload's graph topologies (none on the
	// complete graph); metric names the topo.build_ms suffix.
	topologies []probeTopology
	// keys and bodies are canonical cell keys and a result body of the
	// workload's size, for the checkpoint and hashing probes.
	keys []string
	body []byte
}

type probeTopology struct {
	metric string
	topo   ps.Topology
}

// probeLayers times the rng, topo, core, markov, checkpoint and serve
// hashing layers on p and records their per-layer metrics.
func probeLayers(r *run, parent int64, p probeParams) error {
	start := time.Now()
	defer func() { r.tr.add(parent, "probes", start, time.Now(), nil) }()
	src := rng.New(rng.StreamSeed(r.seed, 1))

	th := rng.NewBinomialThresholds(p.ell, 0.5)
	const draws = 4096
	r.set("rng.binomial_sample_ns", timeEach(25, draws, func() {
		for i := 0; i < draws; i++ {
			th.Sample(src)
		}
	}))

	counts := make([]int, 2)
	const rows = 1024
	r.set("rng.count_packed_blocks_ns", timeEach(25, rows, func() {
		for i := 0; i < rows; i++ {
			// One agent's FET round on the 8-out packed-row path: two
			// blocks of ℓ draws over an 8-bit row (shift 61).
			//fet:allow rngmirror: probe stream only; its draws feed no simulation
			src.CountPackedBlocks(uint64(i)&0xff, 61, p.ell, counts)
		}
	}))

	words := make([]uint64, (p.n+63)/64)
	r.set("rng.fill_ns_per_word", timeEach(25, float64(len(words)), func() {
		//fet:allow rngmirror: probe stream only; its draws feed no simulation
		src.Fill(words)
	}))

	if err := probeTopologies(r, p, words); err != nil {
		return err
	}
	if err := probeEngines(r, p); err != nil {
		return err
	}
	return probeStorage(r, p)
}

// probeTopologies builds each workload topology and times per-agent
// packed-row gathers over a random opinion bitset.
func probeTopologies(r *run, p probeParams, words []uint64) error {
	live := 0
	var rowNs []float64
	for _, pt := range p.topologies {
		var g *topo.Graph
		var err error
		r.set("topo.build_ms."+pt.metric, timeEach(5, 1e6, func() {
			g, err = pt.topo.Build(p.n, ps.StreamSeed(r.seed, 2), r.workers)
		}))
		if err != nil {
			return fmt.Errorf("building %s: %v", pt.topo.Name(), err)
		}
		if g.CanGather() {
			live++
		}
		v := g.NewView()
		var acc uint64
		rowNs = append(rowNs, timeEach(15, float64(p.n), func() {
			for a := 0; a < p.n; a++ {
				v.Bind(a)
				bits, _ := v.RowBits(words)
				acc ^= bits
			}
		}))
		sink = acc
	}
	r.set("topo.gather_plan_active", float64(live))
	if len(rowNs) > 0 {
		r.set("topo.rowbits_ns", median(rowNs))
	}
	return nil
}

// sink keeps probe results observable so the compiler keeps the work.
var sink uint64

// probeEngines times an occupancy-engine round and a chain replicate at
// the workload's n through the public Study API.
func probeEngines(r *run, p probeParams) error {
	st := newStudyTrace(32)
	agg, err := ps.NewStudy(ps.StudySpec{
		Replicates: 32,
		Workers:    1,
		Options:    ps.Options{N: p.n, Engine: ps.EngineAggregate, Seed: ps.StreamSeed(r.seed, 3)},
		Observe:    st.observe,
	})
	if err != nil {
		return err
	}
	if _, err := agg.Run(context.Background()); err != nil {
		return err
	}
	var rounds []float64
	for _, rt := range st.reps {
		for k := 1; k < len(rt.events); k++ {
			rounds = append(rounds, float64(rt.events[k].Sub(rt.events[k-1]).Nanoseconds())/1e3)
		}
	}
	r.set("core.aggregate_round_us", median(rounds))

	const chainReps = 64
	chain, err := ps.NewStudy(ps.StudySpec{
		Replicates: chainReps,
		Workers:    1,
		Options:    ps.Options{N: p.n, Engine: ps.EngineMarkovChain, Seed: ps.StreamSeed(r.seed, 4)},
	})
	if err != nil {
		return err
	}
	var runErr error
	r.set("markov.chain_replicate_us", timeEach(5, chainReps*1e3, func() {
		if _, err := chain.Run(context.Background()); err != nil {
			runErr = err
		}
	}))
	return runErr
}

// probeStorage times checkpoint saves and loads of the workload's result
// bodies and the serve layer's content hashing of its cell keys.
func probeStorage(r *run, p probeParams) error {
	store, err := checkpoint.Open(filepath.Join(r.work, "probe-checkpoints"))
	if err != nil {
		return err
	}
	var saves, loads []float64
	for _, key := range p.keys {
		t := time.Now()
		if err := store.Save(key, p.body); err != nil {
			return err
		}
		saves = append(saves, float64(time.Since(t).Nanoseconds())/1e3)
	}
	for _, key := range p.keys {
		t := time.Now()
		body, ok := store.Load(key)
		loads = append(loads, float64(time.Since(t).Nanoseconds())/1e3)
		r.check(ok && string(body) == string(p.body), "checkpoint probe: %q did not load back", key)
	}
	r.set("checkpoint.save_us.p50", median(saves))
	r.set("checkpoint.load_us.p50", median(loads))

	r.set("serve.hash_us", timeEach(25, float64(len(p.keys))*1e3, func() {
		for _, key := range p.keys {
			sink += uint64(len(serve.HashHex(key)))
		}
	}))
	return nil
}

// jsonBody marshals v for the storage probes.
func jsonBody(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return b
}
