package sim

import (
	"context"
	"reflect"
	"testing"

	"passivespread/internal/rng"
	"passivespread/internal/topo"
)

// hotpathProtocol is a FET-shaped trend protocol local to the hot-path
// tests (internal/sim cannot import internal/core): two declared
// CountOnes calls per round, resettable agents, fixed draws.
type hotpathProtocol struct{ ell int }

func (p *hotpathProtocol) Name() string       { return "hotpath-trend" }
func (p *hotpathProtocol) SampleSizes() []int { return []int{p.ell} }
func (p *hotpathProtocol) DrawsPerRound() int { return 2 }
func (p *hotpathProtocol) NewAgent(*rng.Source) Agent {
	return &hotpathAgent{ell: p.ell}
}

type hotpathAgent struct {
	ell  int
	prev int
}

func (a *hotpathAgent) Step(cur byte, obs Observation) byte {
	c1 := obs.CountOnes(a.ell)
	c2 := obs.CountOnes(a.ell)
	next := cur
	switch {
	case c1 > a.prev:
		next = OpinionOne
	case c1 < a.prev:
		next = OpinionZero
	}
	a.prev = c2
	return next
}

func (a *hotpathAgent) ResetAgent()                  { a.prev = 0 }
func (a *hotpathAgent) CorruptState(src *rng.Source) { a.prev = src.Intn(a.ell + 1) }

var (
	_ Protocol         = (*hotpathProtocol)(nil)
	_ FixedDraws       = (*hotpathProtocol)(nil)
	_ AgentResetter    = (*hotpathAgent)(nil)
	_ StateCorruptible = (*hotpathAgent)(nil)
)

// hotpathConfig uses engine_test.go's deterministic halfInit so the
// alloc measurements never depend on initializer randomness.
func hotpathConfig(engine EngineKind, parallelism int, tp topo.Topology) Config {
	return Config{
		N:           2048,
		Protocol:    &hotpathProtocol{ell: 8},
		Init:        halfInit{},
		Correct:     OpinionOne,
		Engine:      engine,
		Parallelism: parallelism,
		Topology:    tp,
		Seed:        42,
		MaxRounds:   1 << 30,
	}
}

// TestStepZeroAllocsPerRound pins the round loop at zero steady-state
// allocations on every agent engine path: the sequential fast engine
// (tabulated binomials retabulated in place), the sharded parallel
// engine (persistent word-aligned shard workers, executor-owned
// deltas/errs — the stepParallel per-call slices are gone), the exact
// engine, and the literal graph path including dynamic rewiring.
func TestStepZeroAllocsPerRound(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"fast", hotpathConfig(EngineAgentFast, 0, nil)},
		{"parallel", hotpathConfig(EngineAgentParallel, 4, nil)},
		{"exact", hotpathConfig(EngineAgentExact, 0, nil)},
		{"graph", hotpathConfig(EngineAgentFast, 0, topo.RandomRegular(8))},
		{"graph-dynamic", hotpathConfig(EngineAgentParallel, 4, topo.DynamicRewire(8, 0.2))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.cfg.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			e, err := newAgentExecutor(&c)
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			// Warm up: first rounds grow the binomial tables and recycle
			// the first goroutine descriptors.
			for r := 0; r < 8; r++ {
				if err := e.Step(c.Correct); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(50, func() {
				if err := e.Step(c.Correct); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("Step allocates %v times per round in steady state, want 0", avg)
			}
		})
	}
}

// TestPoolReplicatesBitIdentical is the pooling determinism contract:
// leasing a reused executor for every replicate must reproduce the
// unpooled per-replicate results bit for bit — same opinions, same
// trajectories, same convergence rounds — on the fast, parallel, exact,
// and graph paths, with state corruption exercising the agent-reset
// sequence.
func TestPoolReplicatesBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fast", hotpathConfig(EngineAgentFast, 0, nil)},
		{"parallel", hotpathConfig(EngineAgentParallel, 3, nil)},
		{"exact", hotpathConfig(EngineAgentExact, 0, nil)},
		{"dynamic", hotpathConfig(EngineAgentFast, 0, topo.DynamicRewire(8, 0.3))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewPool()
			defer pool.Release()
			for rep := 0; rep < 4; rep++ {
				cfg := tc.cfg
				cfg.Seed = rng.StreamSeed(99, uint64(rep))
				cfg.MaxRounds = 60
				cfg.RunToEnd = true
				cfg.RecordTrajectory = true
				cfg.CorruptStates = true
				want, err := RunContext(ctx, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := pool.RunContext(ctx, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("replicate %d: pooled result diverged\nunpooled: %+v\npooled:   %+v", rep, want, got)
				}
			}
		})
	}
}

// TestPoolReusesExecutors confirms the pool actually reuses (not just
// tolerates) executors: after a lease returns, the next same-shape lease
// must receive the identical executor object.
func TestPoolReusesExecutors(t *testing.T) {
	pool := NewPool()
	defer pool.Release()
	cfg := hotpathConfig(EngineAgentFast, 0, nil)
	cfg.MaxRounds = 10
	cfg.RunToEnd = true
	if _, err := pool.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	key := poolKey{Shape: Shape{engine: EngineAgentFast, n: cfg.N, sources: 1, shards: 1,
		protocol: cfg.Protocol.Name(), topology: "complete"}}
	if got := ShapeOf(cfg); got != key.Shape {
		t.Fatalf("ShapeOf = %+v, want %+v", got, key.Shape)
	}
	first := pool.get(key)
	if first == nil {
		t.Fatal("no pooled executor after a completed lease")
	}
	pool.put(key, first)
	cfg.Seed++
	if _, err := pool.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	second := pool.get(key)
	if second != first {
		t.Fatalf("pool rebuilt the executor instead of reusing it")
	}
	pool.put(key, second)

	// ReleaseShape drops only its own shape's idle executors.
	other := cfg
	other.N++
	pool.ReleaseShape(ShapeOf(other))
	if e := pool.get(key); e != second {
		t.Fatalf("ReleaseShape of another shape dropped this one")
	} else {
		pool.put(key, e)
	}
	pool.ReleaseShape(ShapeOf(cfg))
	if pool.get(key) != nil {
		t.Fatalf("ReleaseShape kept an idle executor of its shape")
	}
}

// TestPooledParallelWorkersStop verifies the executor lifecycle: close
// must stop the persistent shard workers (Release path), and a closed
// pool must still serve fresh leases.
func TestPooledParallelWorkersStop(t *testing.T) {
	pool := NewPool()
	cfg := hotpathConfig(EngineAgentParallel, 4, nil)
	cfg.MaxRounds = 10
	cfg.RunToEnd = true
	if _, err := pool.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	pool.Release()
	// The pool stays usable after Release.
	if _, err := pool.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	pool.Release()
}
