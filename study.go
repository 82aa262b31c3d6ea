package passivespread

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"passivespread/internal/adversary"
	"passivespread/internal/markov"
	"passivespread/internal/rng"
	"passivespread/internal/sim"
	"passivespread/internal/stats"
)

// StudySpec describes a batch of replicate simulations: R independent
// runs of one configuration, differing only in their derived seeds.
type StudySpec struct {
	// Replicates is the number of independent runs (required, ≥ 1).
	Replicates int
	// Workers bounds the replicate worker pool (0 = GOMAXPROCS). The
	// worker count affects scheduling only: replicate seeds derive from
	// (root seed, replicate index) alone, so results are bit-identical at
	// every parallelism level.
	Workers int
	// Batch is the lockstep width W: when the lockstep executor accepts
	// the replicate configuration (complete topology, trend-rule
	// protocol, agent engines; see Study.LockstepRefusal), a worker runs
	// up to W replicates through one shared round loop; otherwise every
	// replicate is its own task, as at Batch 1. 0 or 1 disables
	// batching; the maximum is MaxBatch (one replicate per bit of the
	// executor's uint64 lane masks). Like Workers, Batch affects
	// scheduling only: reports are bit-identical at every Workers × Batch
	// combination. The EngineMarkovChain form ignores Batch.
	Batch int
	// Options is the per-replicate template for the common case (FET
	// under the worst-case defaults). Options.Seed is the study's root
	// seed: replicate i runs with StreamSeed(Seed, i).
	Options Options
	// Config, when non-nil, bypasses Options entirely and uses this
	// sim-level configuration as the replicate template — full control
	// over protocol, initializer, noise, and engine (except
	// EngineMarkovChain, which only the Options form supports).
	// Config.Seed is the root seed. Config.Observers is allowed only for
	// a single replicate: observers are stateful and replicates run
	// concurrently, so batches must use Observe instead.
	Config *Config
	// Observe, when non-nil, is called once per replicate (from the
	// replicate's worker goroutine) and returns the observers attached to
	// that replicate's run, so per-round visibility composes with the
	// concurrent worker pool: each replicate gets its own instances.
	// Returning nil attaches none. Observers must not mutate shared
	// state without their own synchronization.
	Observe func(replicate int) []Observer
}

// MaxBatch is the largest StudySpec.Batch (and SweepSpec.Batch) width:
// the lockstep executor tracks its lanes, one replicate each, in uint64
// masks.
const MaxBatch = 64

// StreamSeed exposes the repository's SplitMix64 stream-derivation rule:
// replicate i of a Study with root seed s runs with StreamSeed(s, i).
// The derived value identifies a replicate's randomness (RunResult.Seed
// reports it) and lets external tooling pre-compute or verify replicate
// seeds. Note that re-running NewStudy with a derived value as the root
// is NOT the same replicate (the single replicate would derive again):
// to reproduce replicate i exactly, re-run the same spec — any worker
// count — and read Results[i].
func StreamSeed(seed, stream uint64) uint64 { return rng.StreamSeed(seed, stream) }

// RunResult is one replicate's outcome, as streamed by Study.Stream.
type RunResult struct {
	// Replicate is the replicate index in [0, Replicates).
	Replicate int
	// Seed is the derived seed the replicate ran with.
	Seed uint64
	// Result is the simulation outcome (zero when Err is non-nil).
	Result Result
	// Err is the replicate's failure, if any. A cancelled context
	// surfaces here as ctx.Err() for replicates interrupted mid-run.
	Err error
}

// ConvergenceStats aggregates replicate convergence outcomes (success
// rate plus a full Summary of the convergence times).
type ConvergenceStats = stats.Convergence

// Summary holds descriptive statistics of a sample (mean, quantiles,
// extremes).
type Summary = stats.Summary

// StudyReport is the aggregate output of Study.Run.
type StudyReport struct {
	// Convergence aggregates t_con across replicates: success rate, and
	// mean/median/quantiles of the convergence times with non-converged
	// replicates censored at their executed round count.
	Convergence ConvergenceStats
	// Results holds the per-replicate outcomes ordered by replicate
	// index — byte-identical for any StudySpec.Workers value.
	Results []RunResult
}

// Study is a prepared batch of replicate simulations. Construct with
// NewStudy; run with Run (aggregate report) or Stream (results as they
// finish).
type Study struct {
	replicates int
	workers    int
	// width is the scheduling task size: the lockstep batch, or 1 when
	// the lockstep executor refuses the configuration (refusal says why).
	width    int
	refusal  sim.Refusal
	rootSeed uint64
	observe  func(replicate int) []Observer

	// pool leases per-replicate round executors: every O(n) buffer (the
	// packed opinion bitsets, per-agent RNG states, resettable agent
	// objects, topology adjacency and View scratch) is reused across the
	// study's replicates instead of reallocated, with bit-identical
	// results. Idle executors are released when a Run/Stream finishes.
	pool *sim.Pool

	// Agent-level template (nil chain fields), or chain parameters.
	cfg   Config
	chain bool
	// chainN, chainEll, chainCap parameterize EngineMarkovChain
	// replicates; the chain starts at grid point (chainX0, chainX1).
	chainN, chainEll, chainCap int
	chainX0, chainX1           float64
	chainTrajectory            bool

	// runner, when set, runs each replicate instead of an engine: a
	// grid cell (Sweep or fetserve) of a scenario with its own
	// scheduler. params.Seed is set per replicate.
	runner ScenarioRunner
	params ScenarioParams
}

// NewStudy validates spec and returns a runnable Study. Validation
// failures wrap ErrInvalidOptions.
func NewStudy(spec StudySpec) (*Study, error) {
	if spec.Replicates < 1 {
		return nil, fmt.Errorf("%w: Replicates: %d, want ≥ 1", ErrInvalidOptions, spec.Replicates)
	}
	if spec.Workers < 0 {
		return nil, fmt.Errorf("%w: Workers: %d, want ≥ 0", ErrInvalidOptions, spec.Workers)
	}
	if spec.Batch < 0 || spec.Batch > MaxBatch {
		return nil, fmt.Errorf("%w: Batch: %d, want 0…%d", ErrInvalidOptions, spec.Batch, MaxBatch)
	}
	s := &Study{replicates: spec.Replicates, workers: resolveWorkers(spec.Workers, spec.Replicates), width: 1, observe: spec.Observe}

	var err error
	if spec.Config != nil {
		if spec.Config.Engine == EngineMarkovChain {
			return nil, fmt.Errorf("%w: Config: EngineMarkovChain requires the Options form of StudySpec", ErrInvalidOptions)
		}
		if len(spec.Config.Observers) > 0 && spec.Replicates > 1 {
			return nil, fmt.Errorf("%w: Config.Observers: shared state; use StudySpec.Observe for %d replicates",
				ErrInvalidOptions, spec.Replicates)
		}
		s.cfg = *spec.Config
		s.rootSeed = spec.Config.Seed
		if s.refusal, err = sim.LockstepRefusal(s.cfg); err != nil {
			return nil, fmt.Errorf("%w: Config: %v", ErrInvalidOptions, err)
		}
	} else {
		if spec.Options.Engine == EngineMarkovChain {
			if spec.Observe != nil {
				return nil, fmt.Errorf("%w: Observe: EngineMarkovChain does not deliver round events", ErrInvalidOptions)
			}
			s.refusal = sim.RefusedEngine
			return s.withChain(spec.Options)
		}
		if s.cfg, err = spec.Options.config(); err != nil {
			return nil, err
		}
		s.rootSeed = spec.Options.Seed
		// An Options form the engine rejects fails per replicate, at run
		// time, as it always has.
		s.refusal, _ = sim.LockstepRefusal(s.cfg)
	}
	if s.refusal == sim.Accepted {
		s.width = min(max(spec.Batch, 1), spec.Replicates)
	}
	s.pool = sim.NewPool()
	return s, nil
}

// withChain derives the Markov-chain replicate parameters from opts. The
// chain models one source and is opinion-symmetric, so CorrectZero has no
// observable effect and results are reported as if the correct opinion
// were 1.
func (s *Study) withChain(opts Options) (*Study, error) {
	ell, maxRounds, err := opts.derive()
	if err != nil {
		return nil, err
	}
	if opts.Sources > 1 {
		return nil, fmt.Errorf("%w: Sources: EngineMarkovChain models exactly one source, got %d",
			ErrInvalidOptions, opts.Sources)
	}
	correct := OpinionOne
	if opts.CorrectZero {
		correct = OpinionZero
	}
	x0, x1, err := chainStart(opts.Init, correct)
	if err != nil {
		return nil, err
	}
	s.chain = true
	s.rootSeed = opts.Seed
	s.chainN = opts.N
	s.chainEll = ell
	s.chainCap = maxRounds
	s.chainX0, s.chainX1 = x0, x1
	s.chainTrajectory = opts.RecordTrajectory
	return s, nil
}

// chainStart maps an Options initializer onto the chain's grid start
// (x_t, x_{t+1}), expressed as fractions of CORRECT opinions (the chain
// reports as if the correct opinion were 1, so a Fraction of 1-opinions
// mirrors when the correct opinion is 0). AllWrong/AllCorrect carry
// their own Correct field: relative to the study's correct opinion,
// AllWrong(correct) starts everyone wrong but AllWrong(1−correct)
// starts everyone right. The chain carries no per-agent state, so only
// initializers with a deterministic opinion fraction are supported.
func chainStart(init Initializer, correct byte) (x0, x1 float64, err error) {
	switch v := init.(type) {
	case nil:
		return 0, 0, nil // the all-wrong worst case
	case adversary.AllWrong:
		if v.Correct != correct {
			// "Wrong" relative to the other opinion = everyone correct.
			return 1, 1, nil
		}
		return 0, 0, nil
	case adversary.AllCorrect:
		if v.Correct != correct {
			return 0, 0, nil
		}
		return 1, 1, nil
	case adversary.Fraction:
		x := v.X
		if correct == OpinionZero {
			x = 1 - x
		}
		return x, x, nil
	default:
		return 0, 0, fmt.Errorf("%w: Init: initializer %q is not supported by EngineMarkovChain",
			ErrInvalidOptions, init.Name())
	}
}

// Replicates returns the number of replicates the study will run.
func (s *Study) Replicates() int { return s.replicates }

// Workers returns the resolved worker-pool size.
func (s *Study) Workers() int { return s.workers }

// LockstepRefusal names the part of the replicate configuration the
// lockstep executor refuses — "engine", "topology", "protocol" or
// "StateInit" — in which case every replicate runs alone whatever the
// Batch; it is "" when the executor accepts the configuration.
func (s *Study) LockstepRefusal() string { return s.refusal.String() }

// Stream starts the study and returns a channel delivering each
// replicate's RunResult as it finishes (completion order; per-replicate
// content is deterministic regardless of order). The channel is closed
// once every replicate has been delivered or the context has ended;
// after cancellation, undelivered replicates are dropped and in-flight
// ones finish within one simulated round. The caller must drain the
// channel or cancel ctx, or the worker pool leaks.
func (s *Study) Stream(ctx context.Context) <-chan RunResult {
	out := make(chan RunResult)
	go func() {
		defer close(out)
		schedule(ctx, s.workers, []*Study{s}, func(_ int, r RunResult) bool {
			select {
			case out <- r:
				return true
			case <-ctx.Done():
				return false
			}
		})
		// All leases are back: free the pooled executors (and stop the
		// parallel engine's persistent shard workers).
		s.release()
	}()
	return out
}

// schedule is the one worker pool behind Study.Stream and Sweep.Stream
// (a Study is a one-cell schedule). Each study's replicates split into
// tasks of study.width consecutive replicates — one lockstep batch when
// the width exceeds 1 — and the workers claim the tasks in slice order:
// every task of studies[0], then of studies[1], and so on, so the
// caller's study order is the feed order. Workers hand each replicate's
// result to deliver, tagged with its study's index, as it finishes; a
// worker stops when deliver returns false. schedule returns once every
// worker has exited: after the last task, or within one simulated round
// of ctx ending.
func schedule(ctx context.Context, workers int, studies []*Study, deliver func(study int, r RunResult) bool) {
	type task struct{ study, lo int }
	var tasks []task
	for i, s := range studies {
		for lo := 0; lo < s.replicates; lo += s.width {
			tasks = append(tasks, task{i, lo})
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	workers = min(workers, len(tasks))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(tasks) && ctx.Err() == nil; k = int(next.Add(1) - 1) {
				t := tasks[k]
				for _, r := range studies[t.study].runTask(ctx, t.lo) {
					if !deliver(t.study, r) {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// resolveWorkers maps a Workers option onto a pool size: 0 means
// GOMAXPROCS, and there are never more workers than work items nor
// fewer than one.
func resolveWorkers(workers, items int) int {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, items), 1)
}

// release drops the study's idle pooled executors.
func (s *Study) release() {
	if s.pool != nil {
		s.pool.Release()
	}
}

// Run executes every replicate across the worker pool and aggregates the
// convergence statistics. The report is bit-identical for any worker
// count on a fixed root seed. Run returns ctx.Err() if the context ends
// before all replicates finish, and the first replicate error (by
// replicate index) otherwise.
func (s *Study) Run(ctx context.Context) (*StudyReport, error) {
	results := make([]RunResult, s.replicates)
	received := 0
	for r := range s.Stream(ctx) {
		results[r.Replicate] = r
		received++
	}
	if received < s.replicates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("passivespread: study lost %d of %d replicates", s.replicates-received, s.replicates)
	}

	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("replicate %d: %w", i, r.Err)
		}
	}
	times, converged := censorConvergence(results)
	return &StudyReport{
		Convergence: stats.SummarizeConvergence(times, converged),
		Results:     results,
	}, nil
}

// censorConvergence maps error-free replicate results onto the t_con
// sample aggregated by stats.SummarizeConvergence: a converged
// replicate contributes its convergence round, a non-converged one is
// censored at its executed round count. Study and Sweep both aggregate
// through this single copy of the convention.
func censorConvergence(results []RunResult) (times []float64, converged []bool) {
	times = make([]float64, len(results))
	converged = make([]bool, len(results))
	for i, r := range results {
		if r.Result.Converged {
			times[i] = float64(r.Result.Round)
			converged[i] = true
		} else {
			times[i] = float64(r.Result.Rounds)
		}
	}
	return times, converged
}

// runSingle backs the Disseminate/Run compatibility wrappers: replicate 0
// executed inline, with its error unwrapped.
func (s *Study) runSingle(ctx context.Context) (Result, error) {
	defer s.release()
	r := s.runReplicate(ctx, 0)
	return r.Result, r.Err
}

// runReplicate executes replicate i with its derived seed.
func (s *Study) runReplicate(ctx context.Context, i int) RunResult {
	seed := rng.StreamSeed(s.rootSeed, uint64(i))
	rr := RunResult{Replicate: i, Seed: seed}
	if s.runner != nil {
		p := s.params
		p.Seed = seed
		rr.Result, rr.Err = s.runner(ctx, p)
		return rr
	}
	if s.chain {
		rr.Result, rr.Err = s.runChainReplicate(ctx, seed)
		return rr
	}
	cfg := s.cfg
	cfg.Seed = seed
	if s.observe != nil {
		// Fresh observer instances per replicate: the template's slice is
		// never shared across concurrently running replicates.
		cfg.Observers = append(append([]Observer(nil), cfg.Observers...), s.observe(i)...)
	}
	rr.Result, rr.Err = s.pool.RunContext(ctx, cfg)
	return rr
}

// runTask executes the scheduling task starting at replicate lo:
// replicate lo alone at width 1, else replicates [lo, min(lo+width,
// Replicates)) as one lockstep batch. Each lane keeps the exact
// per-replicate contract of runReplicate — seed StreamSeed(rootSeed, i),
// fresh observer instances from the template slice plus Observe(i) — so
// every RunResult is bit-identical to the sequential path. A batch-level
// rejection (which RunLockstep reserves for invalid configurations)
// surfaces on every lane of the batch.
func (s *Study) runTask(ctx context.Context, lo int) []RunResult {
	if s.width == 1 {
		return []RunResult{s.runReplicate(ctx, lo)}
	}
	hi := min(lo+s.width, s.replicates)
	w := hi - lo
	lanes := make([]sim.LaneRun, w)
	laneOut := make([]sim.LaneResult, w)
	for l := 0; l < w; l++ {
		i := lo + l
		lanes[l].Seed = rng.StreamSeed(s.rootSeed, uint64(i))
		if s.observe != nil || len(s.cfg.Observers) > 0 {
			lanes[l].Observers = append([]Observer(nil), s.cfg.Observers...)
			if s.observe != nil {
				lanes[l].Observers = append(lanes[l].Observers, s.observe(i)...)
			}
		}
	}
	err := s.pool.RunLockstep(ctx, s.cfg, lanes, laneOut)
	results := make([]RunResult, w)
	for l := 0; l < w; l++ {
		results[l] = RunResult{Replicate: lo + l, Seed: lanes[l].Seed}
		if err != nil {
			results[l].Err = err
			continue
		}
		results[l].Result, results[l].Err = laneOut[l].Result, laneOut[l].Err
	}
	return results
}

// runChainReplicate advances the (K_t, K_{t+1}) chain to absorption and
// reports it in the common Result shape. The context is checked after
// every chain step.
func (s *Study) runChainReplicate(ctx context.Context, seed uint64) (Result, error) {
	ch := markov.New(s.chainN, s.chainEll, seed)
	start := ch.StateAt(s.chainX0, s.chainX1)
	cres := ch.Run(markov.RunConfig{
		Start:            start,
		MaxRounds:        s.chainCap,
		RecordTrajectory: s.chainTrajectory,
		Stop:             func(int, markov.State) bool { return ctx.Err() != nil },
	})
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	res := Result{
		Converged: cres.Converged,
		Round:     cres.Round,
		Rounds:    cres.Rounds,
		FinalX:    float64(cres.Final.K1) / float64(s.chainN),
	}
	if s.chainTrajectory {
		// Match the agent engines' convention: the trajectory starts at
		// the initial fraction, then one entry per executed round.
		res.Trajectory = append([]float64{float64(start.K1) / float64(s.chainN)}, cres.Trajectory...)
	}
	return res, nil
}
