package sim

import (
	"context"
	"fmt"
	"math/bits"

	"passivespread/internal/rng"
	"passivespread/internal/topo"
)

// This file implements the lockstep replicate engine (DESIGN.md §10): up
// to 64 replicates of one configuration — same shape, different
// per-replicate seeds — advance through the round loop together. The
// state is lane-major: each lane owns a contiguous block of agent
// streams and stored counts and its own packed opinion bitset, and each
// round sweeps one live lane at a time over its agents. The per-agent
// trend-compare update (the TrendLockstep contract) is replayed directly
// against the lane's tabulated binomial thresholds, with the per-agent
// xoshiro draws and the threshold scans inlined into one kernel, so a
// batch amortizes the round loop's dispatch and bookkeeping across W
// replicates while staying bit-identical to running each lane alone: on
// the complete topology an observation never reads another agent's
// opinion, so lanes need no shared word. Every lane consumes
// exactly the sequential fast path's RNG stream layout
// (StreamSeed(laneSeed, 0) initializer, StreamSeed(laneSeed, j+1) for
// agent j, d = DrawsPerRound outputs per agent per round).
//
// Degenerate rounds — xObs ∈ {0, 1}, the early worst-case rounds before
// a source observation lands and the absorption tails — are skipped
// entirely: the sequential fast path still draws d outputs per agent
// (fastObserver.bind prefetches unconditionally) but the values are
// unused (the p = 0 table answers 0 for every uniform, the p = 1 table
// answers m) and the population cannot move (it is homogeneous and the
// trend rule keeps it there), so the lockstep engine pins the stored
// counts once per episode, counts the skipped rounds as per-lane debt,
// and settles the debt with one bulk rng.Source.Advance(d·debt) per
// agent stream when the lane returns to live rounds — which can only
// happen through a FlipCorrectAt source switch, hence at most once per
// replicate. Debt still pending at retirement is dropped: an absorbed
// lane's streams are never read again (the same precedent as the graph
// observer's deferred advances).

// maxLockstepLanes is the lane capacity of one lockstep batch: one bit
// per lane in the uint64 live-lane masks.
const maxLockstepLanes = 64

// maxLockstepCount bounds the protocol's declared sample size on the
// lockstep path: stored counts live in uint16 lane columns.
const maxLockstepCount = 1<<16 - 1

// LaneRun describes one replicate (lane) of a lockstep batch: its root
// seed and its private observer list (the batch template's
// Config.Observers is ignored — observers are inherently per-replicate).
type LaneRun struct {
	Seed      uint64
	Observers []Observer
}

// LaneResult is one lane's outcome: exactly the (Result, error) pair the
// same configuration would produce run alone through Pool.RunContext.
type LaneResult struct {
	Result Result
	Err    error
}

// Refusal names the part of a configuration that keeps it off the
// lockstep executor. The zero value, Accepted, means nothing does.
type Refusal uint8

const (
	Accepted         Refusal = iota
	RefusedEngine            // not EngineAgentFast or EngineAgentParallel (bit-identical to fast)
	RefusedTopology          // not uniform mixing
	RefusedProtocol          // not TrendLockstep: d ∈ {1, 2} draws of one sample size, PrevCount, ResetAgent
	RefusedStateInit         // a StateInit hook needs live per-agent objects
)

// String returns the refused part's name ("" for Accepted): "engine",
// "topology", "protocol" or "StateInit".
func (r Refusal) String() string {
	return [...]string{"", "engine", "topology", "protocol", "StateInit"}[r]
}

// LockstepRefusal reports whether cfg can run on the lockstep executor
// (Accepted) or which part of it refuses. NoiseEps and CorruptStates are
// supported; FlipCorrectAt, AbsorbWindow, RunToEnd, RecordTrajectory and
// Observers are driver-level and always supported. The error is cfg's
// validation failure, if any.
func LockstepRefusal(cfg Config) (Refusal, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return Accepted, err
	}
	return lockstepRefusal(&c), nil
}

// lockstepRefusal is LockstepRefusal on a defaulted config.
func lockstepRefusal(c *Config) Refusal {
	if c.Engine != EngineAgentFast && c.Engine != EngineAgentParallel {
		return RefusedEngine
	}
	if !topo.IsComplete(c.Topology) {
		return RefusedTopology
	}
	proto, ok := c.Protocol.(TrendLockstep)
	if !ok {
		return RefusedProtocol
	}
	m, single := singleSampleSize(proto.SampleSizes())
	var s rng.Source
	agent := proto.NewAgent(&s)
	_, prev := agent.(PrevCounter)
	_, reset := agent.(AgentResetter)
	if d := proto.DrawsPerRound(); d < 1 || d > 2 || !single || m < 1 || m > maxLockstepCount || !prev || !reset {
		return RefusedProtocol
	}
	if c.StateInit != nil {
		return RefusedStateInit
	}
	return Accepted
}

// lockstepExecutor holds the lane-major population of one batch. All
// O(n·W) buffers are allocated at construction and reused across
// batches through the pool, and a steady-state round allocates nothing.
type lockstepExecutor struct {
	cfg   *Config
	lanes int // W, the batch width (pool shape)
	d     int // protocol draws per round (1 or 2)
	m     int // the single declared sample size
	nw    int // opinion words per lane, ⌈n/64⌉

	// scratch replays per-agent construction-time RNG (CorruptState)
	// during populate; the lockstep kernel never invokes agent Steps.
	scratchReset   AgentResetter
	scratchPrev    PrevCounter
	scratchCorrupt StateCorruptible // nil when the agent is incorruptible

	isSource []bool
	initBuf  []byte
	// initSrc is the initializer-stream scratch generator: a field (not
	// a populate local) because it is passed through the Initializer
	// interface seam, which would otherwise heap-allocate it per lane.
	initSrc rng.Source

	// srcs and prev are lane-major: index lane*n+agent, so one lane's
	// agents are contiguous for the kernel's sweep. ops holds one packed
	// opinion bitset per lane: bit j&63 of ops[lane*nw+j>>6] is agent j's
	// opinion in that lane. There is no double buffer — on the tabulated
	// fast path observations never read the opinion bitset, so in-place
	// update is byte-equivalent to the sequential engine's swap.
	srcs []rng.Source
	prev []uint16
	ops  []uint64

	ones   []int                    // per-lane 1-opinion counts
	debt   []uint32                 // per-lane skipped degenerate rounds
	pinned []int8                   // per-lane pinned prev sign (−1 none, 0, 1)
	thr    []rng.BinomialThresholds // per-lane round law

	states []laneState // per-lane driver bookkeeping, pooled with the buffers
}

// newLockstepExecutor allocates the lane-major buffers for batches of
// exactly lanes replicates of c's shape. The caller has checked that
// lockstepRefusal accepts c.
func newLockstepExecutor(c *Config, lanes int) *lockstepExecutor {
	proto := c.Protocol.(TrendLockstep)
	m, _ := singleSampleSize(proto.SampleSizes())
	n := c.N
	nw := (n + 63) >> 6
	e := &lockstepExecutor{
		lanes:    lanes,
		d:        proto.DrawsPerRound(),
		m:        m,
		nw:       nw,
		isSource: make([]bool, n),
		initBuf:  make([]byte, n),
		srcs:     make([]rng.Source, n*lanes),
		prev:     make([]uint16, n*lanes),
		ops:      make([]uint64, nw*lanes),
		ones:     make([]int, lanes),
		debt:     make([]uint32, lanes),
		pinned:   make([]int8, lanes),
		thr:      make([]rng.BinomialThresholds, lanes),
		states:   make([]laneState, lanes),
	}
	for i := 0; i < c.Sources; i++ {
		e.isSource[i] = true
	}
	var s rng.Source
	agent := proto.NewAgent(&s)
	e.scratchReset = agent.(AgentResetter)
	e.scratchPrev = agent.(PrevCounter)
	e.scratchCorrupt, _ = agent.(StateCorruptible)
	return e
}

// laneOps is lane l's packed opinion bitset.
func (e *lockstepExecutor) laneOps(l int) []uint64 {
	return e.ops[l*e.nw : (l+1)*e.nw]
}

// populate initializes the executor for one batch, replaying per lane
// exactly the RNG consumption of the sequential populate — initializer
// stream 0, agent streams 1..n with CorruptState draws — so every lane
// starts from the state its replicate would reach alone.
func (e *lockstepExecutor) populate(c *Config, lanes []LaneRun) error {
	e.cfg = c
	n := c.N
	for l := range lanes {
		seed := lanes[l].Seed
		for i := range e.initBuf {
			e.initBuf[i] = 0
		}
		for i := 0; i < c.Sources; i++ {
			e.initBuf[i] = c.Correct
		}
		e.initSrc.Reseed(rng.StreamSeed(seed, 0))
		c.Init.Assign(e.initBuf, e.isSource, &e.initSrc)
		for i := 0; i < c.Sources; i++ {
			if e.initBuf[i] != c.Correct {
				return fmt.Errorf("sim: initializer %q overwrote a source opinion", c.Init.Name())
			}
		}
		ops := e.laneOps(l)
		for w := range ops {
			ops[w] = 0
		}
		ones := 0
		for j := 0; j < n; j++ {
			if e.initBuf[j] == 1 {
				ops[j>>6] |= 1 << uint(j&63)
				ones++
			}
		}
		e.ones[l] = ones
		srcs, prev := e.srcs[l*n:(l+1)*n], e.prev[l*n:(l+1)*n]
		for j := c.Sources; j < n; j++ {
			src := &srcs[j]
			src.Reseed(rng.StreamSeed(seed, uint64(j)+1))
			e.scratchReset.ResetAgent()
			if c.CorruptStates && e.scratchCorrupt != nil {
				e.scratchCorrupt.CorruptState(src)
			}
			prev[j] = uint16(e.scratchPrev.PrevCount())
		}
		e.debt[l] = 0
		e.pinned[l] = -1
	}
	return nil
}

// stepRound advances every active lane one synchronous round. correct is
// the sources' current opinion (identical across active lanes — the
// flip schedule is configuration-level).
//
//fet:hotpath
func (e *lockstepExecutor) stepRound(correct byte, active uint64) {
	c := e.cfg
	n := c.N
	var want uint64
	if correct == OpinionOne {
		want = ^uint64(0)
	}

	// Per active lane: re-pin the sources (under FlipCorrectAt the
	// displayed opinions must follow the flip before observations), then
	// classify the lane. A degenerate lane (xObs ∈ {0, 1}) skips its RNG:
	// the stored counts pin to the forced value once per episode and the
	// d unused draws per agent accrue as debt. A live lane first settles
	// any debt with bulk stream advances, then tabulates its round law
	// and sweeps its agents.
	for msk := active; msk != 0; msk &= msk - 1 {
		l := bits.TrailingZeros64(msk)
		ops := e.laneOps(l)
		for i := 0; i < c.Sources; i += 64 {
			mask := ^uint64(0)
			if r := c.Sources - i; r < 64 {
				mask = 1<<uint(r) - 1
			}
			old := ops[i>>6]
			now := old&^mask | want&mask
			ops[i>>6] = now
			e.ones[l] += bits.OnesCount64(now) - bits.OnesCount64(old)
		}

		x := float64(e.ones[l]) / float64(n)
		xObs := observedFraction(x, c.NoiseEps)
		if xObs == 0 || xObs == 1 {
			pin, pv := uint16(0), int8(0)
			if xObs == 1 {
				pin, pv = uint16(e.m), 1
			}
			if e.pinned[l] != pv {
				prev := e.prev[l*n+c.Sources : (l+1)*n]
				for j := range prev {
					prev[j] = pin
				}
				e.pinned[l] = pv
			}
			e.debt[l]++
			continue
		}
		if e.debt[l] > 0 {
			adv := int(e.debt[l]) * e.d
			srcs := e.srcs[l*n+c.Sources : (l+1)*n]
			for j := range srcs {
				//fet:allow rngmirror: settles exactly debt·d deferred draws per agent stream — the outputs the skipped degenerate rounds would have consumed
				srcs[j].Advance(adv)
			}
			e.debt[l] = 0
		}
		e.pinned[l] = -1
		e.thr[l].Reset(e.m, xObs)
		e.kernel(l)
	}
}

// kernel sweeps lane l's non-source agents once and recounts the lane's
// 1-opinions. Per agent it draws the protocol's d stream outputs with
// the xoshiro step inlined, inverts each against the lane's threshold
// table — the guide table starts the scan within an expected single
// compare of the answer — and applies the trend-compare rule against
// the agent's stored count without branches. The lane's tables and its
// current 64-agent opinion word stay in locals: the word is written
// back once per 64 agents. Everything is straight-line over
// preallocated buffers: zero allocations and no interface dispatch.
//
//fet:hotpath
func (e *lockstepExecutor) kernel(l int) {
	c := e.cfg
	n, lo := c.N, c.Sources
	d2 := e.d == 2
	t := e.thr[l].Thresholds()
	g := e.thr[l].Guide()
	srcs := e.srcs[l*n : (l+1)*n]
	prev := e.prev[l*n : (l+1)*n]
	ops := e.laneOps(l)
	for w := lo >> 6; w < len(ops); w++ {
		jlo, jhi := max(w<<6, lo), min(w<<6+64, n)
		ws, wp := srcs[jlo:jhi], prev[jlo:jhi]
		wp = wp[:len(ws)]
		word := ops[w]
		sh := uint(jlo & 63)
		for i := range ws {
			src := &ws[i]
			//fet:allow rngmirror: one output per protocol draw — the same single consumption as the tabulated SampleU path
			mant := src.Uint64() >> 11
			k := int(g[mant>>rng.GuideShift])
			for mant >= t[k] {
				k++
			}
			c0 := k
			store := c0
			if d2 {
				//fet:allow rngmirror: second of the protocol's d=2 draws, single consumption as above
				mant = src.Uint64() >> 11
				k = int(g[mant>>rng.GuideShift])
				for mant >= t[k] {
					k++
				}
				store = k
			}
			p := int(wp[i])
			wp[i] = uint16(store)
			// Counts are below 2^16, so the sign bit of each difference
			// is the comparison: up is c0 > p, down is c0 < p.
			up := uint64(p-c0) >> 63
			down := uint64(c0-p) >> 63
			word = word&^(down<<(sh&63)) | up<<(sh&63)
			sh++
		}
		ops[w] = word
	}
	ones := 0
	for _, word := range ops {
		ones += bits.OnesCount64(word)
	}
	e.ones[l] = ones
}

// runLockstepLoop drives one populated batch to completion: the shared
// round counter advances all active lanes together, each lane's
// laneState applies exactly the sequential loop's bookkeeping, and a
// lane retires — with its Result or error written to out — the moment
// its own run would have ended. Context cancellation errors every lane
// still active; already-retired lanes keep their results, matching what
// each replicate would observe run alone.
func runLockstepLoop(ctx context.Context, c *Config, e *lockstepExecutor, lanes []LaneRun, out []LaneResult) {
	W := len(lanes)
	active := ^uint64(0) >> uint(64-W)
	for l := 0; l < W; l++ {
		e.states[l].init(c, lanes[l].Observers, e.ones[l])
	}
	for round := 0; round < c.MaxRounds && active != 0; round++ {
		if err := ctx.Err(); err != nil {
			for msk := active; msk != 0; msk &= msk - 1 {
				out[bits.TrailingZeros64(msk)] = LaneResult{Err: err}
			}
			return
		}
		for msk := active; msk != 0; msk &= msk - 1 {
			e.states[bits.TrailingZeros64(msk)].maybeFlip(round)
		}
		// All active lanes share one correct opinion: the flip schedule
		// is part of the batch's common configuration.
		e.stepRound(e.states[bits.TrailingZeros64(active)].correct, active)
		for msk := active; msk != 0; msk &= msk - 1 {
			l := bits.TrailingZeros64(msk)
			halt, err := e.states[l].afterRound(round, e.ones[l])
			if err != nil {
				out[l] = LaneResult{Err: err}
				active &^= 1 << uint(l)
				continue
			}
			if halt {
				out[l] = LaneResult{Result: e.states[l].result(round+1, e.ones[l])}
				active &^= 1 << uint(l)
			}
		}
	}
	for msk := active; msk != 0; msk &= msk - 1 {
		l := bits.TrailingZeros64(msk)
		out[l] = LaneResult{Result: e.states[l].result(c.MaxRounds, e.ones[l])}
	}
}
