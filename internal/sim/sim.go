// Package sim implements the synchronous-round population simulator for
// the PULL model with passive communication, as defined in Section 1.2 of
// the paper.
//
// A population of n agents holds binary opinions. In every round each
// non-source agent observes the opinions of random agents (with
// replacement) and applies its protocol's update rule; source agents hold
// the correct opinion forever. Who an agent may observe is decided by the
// observation-topology layer (internal/topo, Config.Topology): under the
// default Complete topology — the paper's uniform mixing — observations
// are uniform over the whole population, and because communication is
// passive an observation of m agents then carries no information beyond
// the number of 1-opinions among them, exactly a Binomial(m, x_t)
// variate for the current 1-fraction x_t. Non-complete topologies
// restrict each agent's draws to its out-neighbor row in the built
// observation graph, sampled uniformly with replacement.
//
// The package is layered (see DESIGN.md §1): a protocol-independent
// orchestrator owns the round loop and bookkeeping, and advances the
// population through a pluggable round executor selected by EngineKind:
//
//   - EngineAgentExact samples agent indices literally and reads their
//     opinions (the model's operational definition);
//   - EngineAgentFast draws each observation directly from a tabulated
//     Binomial(m, x_t) law (the model's distributional definition);
//   - EngineAgentParallel shards the fast sweep across a worker pool,
//     bit-identical to EngineAgentFast at every parallelism level;
//   - EngineAggregate advances per-(opinion, state) occupancy counts in
//     O(ℓ²) per round independent of n, agent-level exact in
//     distribution, for populations of 10⁸ and beyond.
//
// Tests cross-validate all of them. A still-coarser engine that
// simulates only the (x_t, x_{t+1}) Markov chain of Observation 1 lives
// in internal/markov.
package sim

import (
	"fmt"

	"passivespread/internal/rng"
)

// Opinion values. Opinions are bytes restricted to {0, 1}.
const (
	OpinionZero byte = 0
	OpinionOne  byte = 1
)

// Observation gives an agent access to its random observations for the
// current round. Under passive communication the only extractable
// information is opinion bits of sampled agents. The sampling law is the
// engine's per-agent neighbor sampler: uniform over the whole population
// under the Complete topology, uniform over the agent's out-neighbor row
// on a graph topology — protocols (FET, SimpleTrend, the baselines) are
// written against this seam and never draw population indices directly.
type Observation interface {
	// CountOnes observes m random agents (with replacement, per the
	// configured topology) and returns how many currently hold opinion 1.
	CountOnes(m int) int
	// Sample observes a single random agent and returns its opinion.
	Sample() byte
}

// Agent is the per-agent update rule of a protocol. Step receives the
// agent's current opinion and its observation access for the round, and
// returns the opinion the agent will display next round.
type Agent interface {
	Step(cur byte, obs Observation) byte
}

// Protocol constructs per-agent update rules.
type Protocol interface {
	// Name identifies the protocol in results and tables.
	Name() string
	// SampleSizes lists the distinct CountOnes arguments the agents use
	// each round, so the fast engine can pre-tabulate the binomial laws.
	// Protocols that only call Sample may return nil.
	SampleSizes() []int
	// NewAgent returns a fresh agent rule drawing randomness from src.
	NewAgent(src *rng.Source) Agent
}

// Initializer chooses the adversarial starting opinions of non-source
// agents (the self-stabilizing setting allows any starting configuration).
type Initializer interface {
	// Name identifies the initial condition in results and tables.
	Name() string
	// Assign writes a starting opinion for every index of opinions whose
	// isSource flag is false. Source entries are pre-set by the engine and
	// must be left untouched.
	Assign(opinions []byte, isSource []bool, src *rng.Source)
}

// FixedDraws is implemented by protocols whose agents consume exactly
// DrawsPerRound outputs from their RNG stream per round on the
// tabulated fast path — i.e. every Step makes exactly that many
// CountOnes calls, each with a size declared in SampleSizes, and no
// Sample calls. The fast observer then prefetches each agent's whole
// round of draws in one bulk fill (rng.Source.Fill) instead of drawing
// one value at a time; because a tabulated CountOnes consumes exactly
// one output per call, every consuming call reads the same value it
// would have drawn itself and the stream stays bit-identical to the
// unbatched path. FET declares 2, SimpleTrend 1.
type FixedDraws interface {
	DrawsPerRound() int
}

// TrendLockstep is implemented by protocols eligible for the lockstep
// replicate engine (Pool.RunLockstep), which advances up to 64
// replicates of one configuration through the round loop together. The
// marker asserts that, on the tabulated fast path, the protocol's whole
// per-agent update is the trend-compare rule:
//
//	draw DrawsPerRound() counts c_0 … c_{d−1}, each a CountOnes of the
//	single declared sample size; adopt opinion 1 if c_0 exceeds the
//	stored count, 0 if it is below, keep the current opinion on a tie;
//	store c_{d−1} for the next round.
//
// with d ∈ {1, 2} (FET compares c_0 and stores c_1; SimpleTrend uses
// one count for both) and no Sample calls. The lockstep engine replays
// this rule itself — agents' Step methods are never invoked — so the
// marker is a promise, cross-checked by the bit-identity test battery,
// not a derived fact. Eligible protocols' agents must additionally
// implement PrevCounter and AgentResetter (StateCorruptible and
// TrendSeeder compose as usual).
type TrendLockstep interface {
	Protocol
	FixedDraws
	// LockstepRule is a marker method carrying no behavior.
	LockstepRule()
}

// PrevCounter is implemented by trend-following agents exposing their
// stored previous-round count. The lockstep engine reads it once per
// replicate to copy the agent state into its lane-major buffers.
type PrevCounter interface {
	PrevCount() int
}

// AgentResetter is implemented by agents that can be restored to their
// protocol's fresh (post-NewAgent) state in place. Pooled executors
// reset such agents across replicates instead of reallocating n of
// them; agents without it are rebuilt via Protocol.NewAgent each
// replicate. Adversarial state corruption and StateInit hooks run after
// the reset, exactly as they run after construction.
type AgentResetter interface {
	ResetAgent()
}

// StateCorruptible is implemented by agents whose internal memory can be
// set adversarially before round 0. Self-stabilization demands correctness
// from arbitrary internal states, so experiments exercising worst cases
// corrupt agent memories through this hook.
type StateCorruptible interface {
	CorruptState(src *rng.Source)
}

// TrendSeeder is implemented by trend-following agents (FET and its
// unpartitioned variant) whose stored previous-round count can be seeded.
// Seeding every agent's count with an independent Binomial(ℓ, x0) draw
// places the induced Markov chain exactly at (x_t, x_{t+1}) = (x0, ·),
// which the domain experiments use to start the chain anywhere on the
// grid G.
type TrendSeeder interface {
	SeedPrevCount(count int)
}

// EngineKind selects the round executor.
type EngineKind int

// Available engines.
const (
	// EngineAgentFast draws observations from tabulated binomial laws.
	// It is the default: statistically identical to the exact engine and
	// several times faster.
	EngineAgentFast EngineKind = iota
	// EngineAgentExact samples agent indices uniformly and reads opinions.
	EngineAgentExact
	// EngineAgentParallel is EngineAgentFast sharded across a worker pool
	// (Config.Parallelism, default GOMAXPROCS). Because every agent owns
	// its RNG stream and shards write disjoint slices, results are
	// bit-identical to EngineAgentFast at every parallelism level.
	EngineAgentParallel
	// EngineAggregate advances the population as occupancy counts per
	// (opinion, internal state) instead of per-agent objects: one round
	// costs O(ℓ²) multinomial updates independent of n, reaching
	// populations of 10⁸ and beyond with agent-level-exact statistics.
	// Requires a Protocol implementing AggregateProtocol; supports
	// CorruptStates but not StateInit.
	EngineAggregate
	// EngineAggregateSparse is the occupancy engine for degree-annealed
	// sparse topologies (random k-out and its dynamic rewiring): each
	// agent's k observation targets look like a fresh uniform draw every
	// round, so an agent's neighborhood carries j ~ B(k, x) one-opinions
	// and its observations are i.i.d. Bernoulli(j/k) given j. One round
	// costs O(k·ℓ²) independent of n. Requires a Protocol implementing
	// SparseAggregateProtocol and a topology reporting an annealed
	// degree; all other topologies are rejected at validation.
	EngineAggregateSparse
)

// ParseEngineKind returns the engine selected by a CLI-style name:
// "fast", "exact", "parallel", "aggregate" or "aggregate-sparse".
func ParseEngineKind(name string) (EngineKind, error) {
	switch name {
	case "fast":
		return EngineAgentFast, nil
	case "exact":
		return EngineAgentExact, nil
	case "parallel":
		return EngineAgentParallel, nil
	case "aggregate":
		return EngineAggregate, nil
	case "aggregate-sparse":
		return EngineAggregateSparse, nil
	default:
		return 0, fmt.Errorf("sim: unknown engine %q", name)
	}
}

// String returns the engine's name.
func (k EngineKind) String() string {
	switch k {
	case EngineAgentFast:
		return "agent-fast"
	case EngineAgentExact:
		return "agent-exact"
	case EngineAgentParallel:
		return "agent-parallel"
	case EngineAggregate:
		return "aggregate"
	case EngineAggregateSparse:
		return "aggregate-sparse"
	default:
		return "unknown"
	}
}

// Occupancy is the aggregate population representation: Counts[o][s] is
// the number of non-source agents currently displaying opinion o with
// internal state s. Sources are tracked separately by the engine.
type Occupancy struct {
	Counts [2][]int
}

// NewOccupancy returns a zeroed occupancy matrix for states states.
func NewOccupancy(states int) *Occupancy {
	return &Occupancy{Counts: [2][]int{make([]int, states), make([]int, states)}}
}

// Ones returns the number of non-source agents displaying opinion 1.
func (o *Occupancy) Ones() int {
	ones := 0
	for _, c := range o.Counts[1] {
		ones += c
	}
	return ones
}

// Total returns the number of non-source agents.
func (o *Occupancy) Total() int {
	t := 0
	for op := 0; op < 2; op++ {
		for _, c := range o.Counts[op] {
			t += c
		}
	}
	return t
}

// Zero clears all counts.
func (o *Occupancy) Zero() {
	for op := 0; op < 2; op++ {
		for s := range o.Counts[op] {
			o.Counts[op][s] = 0
		}
	}
}

// AggregateProtocol is implemented by protocols whose whole population can
// be advanced as occupancy counts: the agent state is a small integer and
// the update law depends only on (opinion, state) and the round's
// observation distribution. FET and SimpleTrend qualify — their state is
// the stored count ∈ {0, …, ℓ}.
type AggregateProtocol interface {
	Protocol
	// AggregateStates returns the number of distinct internal states.
	AggregateStates() int
	// StepOccupancy advances the population one synchronous round: occ is
	// the current occupancy, next a zeroed matrix to fill, xObs the
	// effective probability that a single observation reads 1 (noise
	// already folded in), and src the round's randomness. The update must
	// be agent-level exact in distribution.
	StepOccupancy(occ, next *Occupancy, xObs float64, src *rng.Source)
}

// SparseAggregateProtocol extends AggregateProtocol with the
// degree-annealed round update used by EngineAggregateSparse: every
// agent's k observation targets are a fresh uniform draw from the
// population, so its neighborhood holds j ~ B(k, x) one-opinions and
// each observation reads 1 with probability observedFraction(j/k,
// noiseEps) given j. Unlike StepOccupancy, noise folds in per
// neighborhood class, so the raw fraction and noise level pass through.
type SparseAggregateProtocol interface {
	AggregateProtocol
	// StepOccupancySparse advances one synchronous round under the
	// annealed k-neighbor observation law. x is the raw fraction of
	// 1-opinions and noiseEps the per-observation flip probability; the
	// update must be agent-level exact in distribution for the
	// configuration-model neighborhood.
	StepOccupancySparse(occ, next *Occupancy, k int, x, noiseEps float64, src *rng.Source)
}

// AggregateInitializer is implemented by initializers that can report how
// many of the nonSources non-source agents start at opinion 1 without
// materializing a per-agent opinion array — required to start the
// aggregate engine at populations where O(n) arrays are not affordable.
// n is the total population size and sourceOnes the number of sources
// displaying opinion 1; the returned count must lie in [0, nonSources].
type AggregateInitializer interface {
	Initializer
	AggregateOnes(n, nonSources, sourceOnes int, src *rng.Source) int
}
