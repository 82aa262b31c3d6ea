package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"passivespread/internal/rng"
	"passivespread/internal/topo"
)

// lsTrendProto is a test protocol implementing exactly the TrendLockstep
// contract through its Step method, with configurable draw count: d = 2
// mirrors FET (compare the first count, store the second), d = 1 mirrors
// SimpleTrend (one count for both). The bit-identity battery runs it
// through both the sequential fast path (agents stepping) and the
// lockstep executor (rule replayed by the lane kernel) and demands identical
// results.
type lsTrendProto struct {
	ell   int
	draws int
}

func (p lsTrendProto) Name() string       { return fmt.Sprintf("ls-trend(d=%d,ell=%d)", p.draws, p.ell) }
func (p lsTrendProto) SampleSizes() []int { return []int{p.ell} }
func (p lsTrendProto) DrawsPerRound() int { return p.draws }
func (p lsTrendProto) LockstepRule()      {}
func (p lsTrendProto) NewAgent(*rng.Source) Agent {
	return &lsTrendAgent{ell: p.ell, draws: p.draws}
}

type lsTrendAgent struct {
	ell, draws, prev int
}

func (a *lsTrendAgent) Step(cur byte, obs Observation) byte {
	c0 := obs.CountOnes(a.ell)
	store := c0
	if a.draws == 2 {
		store = obs.CountOnes(a.ell)
	}
	next := cur
	switch {
	case c0 > a.prev:
		next = OpinionOne
	case c0 < a.prev:
		next = OpinionZero
	}
	a.prev = store
	return next
}

func (a *lsTrendAgent) PrevCount() int               { return a.prev }
func (a *lsTrendAgent) ResetAgent()                  { a.prev = 0 }
func (a *lsTrendAgent) CorruptState(src *rng.Source) { a.prev = src.Intn(a.ell + 1) }

var (
	_ TrendLockstep    = lsTrendProto{}
	_ PrevCounter      = (*lsTrendAgent)(nil)
	_ AgentResetter    = (*lsTrendAgent)(nil)
	_ StateCorruptible = (*lsTrendAgent)(nil)
)

// randomBernoulliInit draws each non-source opinion independently,
// consuming initializer-stream outputs so the lockstep populate's
// per-lane initializer replay is exercised.
type randomBernoulliInit struct{ p float64 }

func (randomBernoulliInit) Name() string { return "random-bernoulli" }
func (r randomBernoulliInit) Assign(op []byte, isSource []bool, src *rng.Source) {
	for i := range op {
		if !isSource[i] {
			op[i] = OpinionZero
			if src.Bernoulli(r.p) {
				op[i] = OpinionOne
			}
		}
	}
}

// runLanesSequential is the reference: each lane run alone through the
// pooled sequential path.
func runLanesSequential(ctx context.Context, p *Pool, cfg Config, lanes []LaneRun) []LaneResult {
	out := make([]LaneResult, len(lanes))
	for l := range lanes {
		lc := cfg
		lc.Seed = lanes[l].Seed
		lc.Observers = lanes[l].Observers
		res, err := p.RunContext(ctx, lc)
		out[l] = LaneResult{Result: res, Err: err}
	}
	return out
}

func laneSeeds(root uint64, w int) []LaneRun {
	lanes := make([]LaneRun, w)
	for i := range lanes {
		lanes[i] = LaneRun{Seed: rng.StreamSeed(root, uint64(i))}
	}
	return lanes
}

func TestLockstepBitIdenticalMatrix(t *testing.T) {
	base := Config{
		N:             300,
		Protocol:      lsTrendProto{ell: 12, draws: 2},
		Init:          allWrongInit{},
		Correct:       OpinionOne,
		MaxRounds:     400,
		CorruptStates: true,
	}
	scenarios := []struct {
		name string
		mut  func(*Config)
	}{
		{"worst-case", func(*Config) {}},
		{"simple-trend", func(c *Config) { c.Protocol = lsTrendProto{ell: 7, draws: 1} }},
		{"random-init", func(c *Config) { c.Init = randomBernoulliInit{p: 0.5} }},
		{"correct-zero", func(c *Config) {
			c.Correct = OpinionZero
			c.Init = allCorrectInit{} // every non-source starts wrong (at 1)
		}},
		{"three-sources", func(c *Config) { c.Sources = 3 }},
		{"noise", func(c *Config) { c.NoiseEps = 0.02 }},
		{"run-to-end", func(c *Config) {
			// Absorption happens long before MaxRounds, so the tail is a
			// long degenerate episode exercising the debt counters.
			c.RunToEnd = true
			c.MaxRounds = 120
		}},
		{"flip-out-of-absorption", func(c *Config) {
			// The run absorbs, idles degenerate until the flip, then the
			// sources switch sides: the lanes leave the degenerate episode
			// through the bulk stream-advance flush and reconverge to 0.
			c.FlipCorrectAt = 90
			c.MaxRounds = 400
		}},
		{"absorb-window-3", func(c *Config) { c.AbsorbWindow = 3 }},
		{"trajectory", func(c *Config) { c.RecordTrajectory = true; c.MaxRounds = 60; c.RunToEnd = true }},
		{"parallel-engine", func(c *Config) { c.Engine = EngineAgentParallel; c.Parallelism = 4 }},
		// Populations around the 64-agent word boundary of the per-lane
		// opinion bitsets: a partial single word, exactly one word, and
		// one agent spilling into a second word (the base N = 300 ends
		// mid-word).
		{"n=63", func(c *Config) { c.N = 63 }},
		{"n=64", func(c *Config) { c.N = 64 }},
		{"n=65", func(c *Config) { c.N = 65 }},
		// A source prefix that fills the first word and ends inside the
		// second: source re-pinning and the kernel's first swept word
		// both straddle a word boundary. The flip re-pins all 70 sources
		// mid-run, and the trajectory pins every round's count, so a
		// source bit left unflipped or overwritten shows.
		{"sources-70", func(c *Config) {
			c.Sources = 70
			c.FlipCorrectAt = 40
			c.RecordTrajectory = true
		}},
	}
	widths := []int{1, 2, 5, 32, 64}

	for _, sc := range scenarios {
		for _, w := range widths {
			t.Run(fmt.Sprintf("%s/w=%d", sc.name, w), func(t *testing.T) {
				cfg := base
				sc.mut(&cfg)
				c, err := cfg.withDefaults()
				if err != nil {
					t.Fatalf("withDefaults: %v", err)
				}
				if r := lockstepRefusal(&c); r != Accepted {
					t.Fatalf("scenario unexpectedly refused by lockstep: %s", r)
				}
				lanes := laneSeeds(uint64(0xC0FFEE+w), w)

				seqPool := NewPool()
				defer seqPool.Release()
				want := runLanesSequential(context.Background(), seqPool, cfg, lanes)

				got := make([]LaneResult, w)
				if w == 1 {
					// RunLockstep sends single-lane batches down the
					// sequential path; drive the executor itself so the
					// one-lane kernel is compared too.
					e := newLockstepExecutor(&c, w)
					if err := e.populate(&c, lanes); err != nil {
						t.Fatalf("populate: %v", err)
					}
					runLockstepLoop(context.Background(), &c, e, lanes, got)
				} else {
					lockPool := NewPool()
					defer lockPool.Release()
					if err := lockPool.RunLockstep(context.Background(), cfg, lanes, got); err != nil {
						t.Fatalf("RunLockstep: %v", err)
					}
				}
				for l := range lanes {
					if got[l].Err != nil || want[l].Err != nil {
						t.Fatalf("lane %d: errs lockstep=%v sequential=%v", l, got[l].Err, want[l].Err)
					}
					if !reflect.DeepEqual(got[l].Result, want[l].Result) {
						t.Errorf("lane %d diverged:\nlockstep:   %+v\nsequential: %+v", l, got[l].Result, want[l].Result)
					}
				}
			})
		}
	}
}

func TestLockstepPooledBatchesBitIdentical(t *testing.T) {
	// A pooled executor re-leased for a second batch must replay exactly
	// the first-lease behavior, including when the two batches differ in
	// seeds, corruption, and noise.
	cfg := Config{
		N:             257,
		Protocol:      lsTrendProto{ell: 9, draws: 2},
		Init:          randomBernoulliInit{p: 0.3},
		Correct:       OpinionOne,
		MaxRounds:     300,
		CorruptStates: true,
	}
	p := NewPool()
	defer p.Release()
	seq := NewPool()
	defer seq.Release()

	for batch := 0; batch < 3; batch++ {
		bcfg := cfg
		if batch == 2 {
			bcfg.NoiseEps = 0.01
		}
		lanes := laneSeeds(uint64(1000+batch), 16)
		got := make([]LaneResult, len(lanes))
		if err := p.RunLockstep(context.Background(), bcfg, lanes, got); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		want := runLanesSequential(context.Background(), seq, bcfg, lanes)
		for l := range lanes {
			if got[l].Err != nil {
				t.Fatalf("batch %d lane %d: %v", batch, l, got[l].Err)
			}
			if !reflect.DeepEqual(got[l].Result, want[l].Result) {
				t.Errorf("batch %d lane %d diverged:\nlockstep:   %+v\nsequential: %+v",
					batch, l, got[l].Result, want[l].Result)
			}
		}
	}
}

func TestLockstepSameRoundRetirement(t *testing.T) {
	// Identical seeds make every lane the same replicate: all 64 retire
	// in the same round, the hardest lane-retirement boundary.
	cfg := Config{
		N:             300,
		Protocol:      lsTrendProto{ell: 12, draws: 2},
		Init:          allWrongInit{},
		Correct:       OpinionOne,
		MaxRounds:     400,
		CorruptStates: true,
	}
	lanes := make([]LaneRun, 64)
	for i := range lanes {
		lanes[i].Seed = 42
	}
	p := NewPool()
	defer p.Release()
	got := make([]LaneResult, len(lanes))
	if err := p.RunLockstep(context.Background(), cfg, lanes, got); err != nil {
		t.Fatal(err)
	}
	ref := cfg
	ref.Seed = 42
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	for l := range got {
		if got[l].Err != nil {
			t.Fatalf("lane %d: %v", l, got[l].Err)
		}
		if !reflect.DeepEqual(got[l].Result, want) {
			t.Errorf("lane %d: got %+v want %+v", l, got[l].Result, want)
		}
	}
}

func TestLockstepFallbackIneligible(t *testing.T) {
	// Configurations outside the lockstep envelope fall back to per-lane
	// sequential runs with identical results.
	base := Config{
		N:         128,
		Protocol:  lsTrendProto{ell: 8, draws: 2},
		Init:      allWrongInit{},
		Correct:   OpinionOne,
		MaxRounds: 300,
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want Refusal
	}{
		{"exact-engine", func(c *Config) { c.Engine = EngineAgentExact }, RefusedEngine},
		{"graph-topology", func(c *Config) { c.Topology = topo.RandomRegular(8) }, RefusedTopology},
		{"non-trend-protocol", func(c *Config) { c.Protocol = majorityProtocol{m: 5} }, RefusedProtocol},
		{"state-init", func(c *Config) {
			c.StateInit = func(_ int, a Agent, _ *rng.Source) { a.(*lsTrendAgent).prev = 3 }
		}, RefusedStateInit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			if got, err := LockstepRefusal(cfg); err != nil || got != tc.want {
				t.Fatalf("LockstepRefusal = %q, %v; want %q", got, err, tc.want)
			}
			lanes := laneSeeds(7, 4)
			p := NewPool()
			defer p.Release()
			got := make([]LaneResult, len(lanes))
			if err := p.RunLockstep(context.Background(), cfg, lanes, got); err != nil {
				t.Fatal(err)
			}
			seq := NewPool()
			defer seq.Release()
			want := runLanesSequential(context.Background(), seq, cfg, lanes)
			for l := range lanes {
				if got[l].Err != nil || want[l].Err != nil {
					t.Fatalf("lane %d: errs %v / %v", l, got[l].Err, want[l].Err)
				}
				if !reflect.DeepEqual(got[l].Result, want[l].Result) {
					t.Errorf("lane %d diverged", l)
				}
			}
		})
	}
}

func TestLockstepBatchValidation(t *testing.T) {
	p := NewPool()
	defer p.Release()
	cfg := Config{
		N:         64,
		Protocol:  lsTrendProto{ell: 6, draws: 2},
		Init:      allWrongInit{},
		MaxRounds: 10,
	}
	if err := p.RunLockstep(context.Background(), cfg, make([]LaneRun, 4), make([]LaneResult, 3)); err == nil {
		t.Error("mismatched out length accepted")
	}
	if err := p.RunLockstep(context.Background(), cfg, make([]LaneRun, 65), make([]LaneResult, 65)); err == nil {
		t.Error("65 lanes accepted")
	}
	bad := cfg
	bad.N = 1
	if err := p.RunLockstep(context.Background(), bad, make([]LaneRun, 4), make([]LaneResult, 4)); err == nil {
		t.Error("invalid config accepted")
	}
	if err := p.RunLockstep(context.Background(), cfg, nil, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

func TestLockstepNilPoolDegrades(t *testing.T) {
	cfg := Config{
		N:         100,
		Protocol:  lsTrendProto{ell: 6, draws: 2},
		Init:      allWrongInit{},
		MaxRounds: 200,
	}
	lanes := laneSeeds(3, 4)
	var np *Pool
	got := make([]LaneResult, len(lanes))
	if err := np.RunLockstep(context.Background(), cfg, lanes, got); err != nil {
		t.Fatal(err)
	}
	for l := range lanes {
		lc := cfg
		lc.Seed = lanes[l].Seed
		want, err := Run(lc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[l].Result, want) {
			t.Errorf("lane %d diverged", l)
		}
	}
}

func TestLockstepCancellation(t *testing.T) {
	cfg := Config{
		N:             300,
		Protocol:      lsTrendProto{ell: 12, draws: 2},
		Init:          allWrongInit{},
		Correct:       OpinionOne,
		MaxRounds:     400,
		CorruptStates: true,
	}
	lanes := laneSeeds(99, 32)

	// Reference pass: learn each lane's natural convergence round.
	seq := NewPool()
	defer seq.Release()
	want := runLanesSequential(context.Background(), seq, cfg, lanes)
	slowest, cutoff := 0, 0
	for l, r := range want {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Result.Rounds > cutoff {
			slowest, cutoff = l, r.Result.Rounds
		}
	}
	if cutoff < 3 {
		t.Fatalf("degenerate reference: slowest lane takes %d rounds", cutoff)
	}
	// Cancel from an observer on the slowest lane partway through: lanes
	// already retired keep their results, lanes still running get the
	// context error at the next round boundary.
	cancelAt := cutoff - 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lanes[slowest].Observers = []Observer{ObserverFunc(func(ev RoundEvent) error {
		if ev.Round == cancelAt {
			cancel()
		}
		return nil
	})}

	p := NewPool()
	defer p.Release()
	got := make([]LaneResult, len(lanes))
	if err := p.RunLockstep(ctx, cfg, lanes, got); err != nil {
		t.Fatal(err)
	}
	sawCancel := false
	for l := range got {
		finished := want[l].Result.Rounds <= cancelAt+1 && l != slowest
		switch {
		case finished:
			if got[l].Err != nil {
				t.Errorf("lane %d finished before the cancel but reports %v", l, got[l].Err)
			} else if !reflect.DeepEqual(got[l].Result, want[l].Result) {
				t.Errorf("lane %d result diverged under cancellation", l)
			}
		default:
			if got[l].Err == nil {
				// A lane retiring in the cancellation round itself is
				// legitimate — it halts before the next ctx check.
				if !reflect.DeepEqual(got[l].Result, want[l].Result) {
					t.Errorf("lane %d result diverged under cancellation", l)
				}
				continue
			}
			if !errors.Is(got[l].Err, context.Canceled) {
				t.Errorf("lane %d: got %v, want context.Canceled", l, got[l].Err)
			}
			sawCancel = true
		}
	}
	if !sawCancel {
		t.Error("no lane observed the cancellation")
	}
}

func TestLockstepObserverErrorRetiresOnlyThatLane(t *testing.T) {
	cfg := Config{
		N:         200,
		Protocol:  lsTrendProto{ell: 10, draws: 2},
		Init:      allWrongInit{},
		Correct:   OpinionOne,
		MaxRounds: 300,
	}
	lanes := laneSeeds(5, 8)
	boom := errors.New("boom")
	lanes[3].Observers = []Observer{ObserverFunc(func(ev RoundEvent) error {
		if ev.Round == 2 {
			return boom
		}
		return nil
	})}
	p := NewPool()
	defer p.Release()
	got := make([]LaneResult, len(lanes))
	if err := p.RunLockstep(context.Background(), cfg, lanes, got); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got[3].Err, boom) {
		t.Errorf("lane 3: got %v, want the observer error", got[3].Err)
	}
	seq := NewPool()
	defer seq.Release()
	for l := range lanes {
		if l == 3 {
			continue
		}
		if got[l].Err != nil {
			t.Fatalf("lane %d: %v", l, got[l].Err)
		}
		lc := cfg
		lc.Seed = lanes[l].Seed
		want, err := seq.RunContext(context.Background(), lc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[l].Result, want) {
			t.Errorf("lane %d diverged", l)
		}
	}
}

func TestLockstepSteadyStateAllocs(t *testing.T) {
	// After the first batch builds the pooled executor, a whole further
	// batch — hundreds of rounds across 32 lanes — must allocate at most
	// a handful of objects (the pool-key strings), proving the per-round
	// path is allocation-free.
	cfg := Config{
		N:             512,
		Protocol:      lsTrendProto{ell: 10, draws: 2},
		Init:          allWrongInit{},
		Correct:       OpinionOne,
		MaxRounds:     200,
		RunToEnd:      true,
		CorruptStates: true,
	}
	lanes := laneSeeds(11, 32)
	out := make([]LaneResult, len(lanes))
	p := NewPool()
	defer p.Release()
	if err := p.RunLockstep(context.Background(), cfg, lanes, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := p.RunLockstep(context.Background(), cfg, lanes, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("pooled lockstep batch allocated %.0f objects, want ≤ 8", allocs)
	}
}
