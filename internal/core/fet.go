// Package core implements the paper's primary contribution: the Follow
// the Emerging Trend (FET) protocol (Protocol 1) for the self-stabilizing
// bit-dissemination problem under passive communication, together with its
// unpartitioned precursor (the first algorithm of Section 1.3) and the
// problem-level parameter conventions.
//
// FET at round t (per non-source agent):
//
//	partition the 2ℓ fresh samples into halves S′_t, S′′_t;
//	count′_t ← #1s in S′_t;   count′′_t ← #1s in S′′_t;
//	if count′_t > count′′_{t−1} then Y_{t+1} ← 1
//	else if count′_t < count′′_{t−1} then Y_{t+1} ← 0
//	else Y_{t+1} ← Y_t;
//
// Because the 2ℓ PULL samples are i.i.d. with replacement, a uniformly
// random equal split yields two independent ℓ-sample halves, so the
// implementation simply draws two independent ℓ-agent observations.
//
// The protocols never draw population indices themselves: all sampling
// goes through the sim.Observation seam, whose law is the engine's
// per-agent neighbor sampler (internal/topo). Under the default Complete
// topology that is the paper's uniform mixing; on a graph topology the
// same update rules run against each agent's out-neighbor row, which is
// what makes "does FET survive on a k-regular or small-world graph?" a
// configuration rather than a new protocol.
//
// Theorem 1 (stated for uniform mixing): FET converges in O(log^{5/2} n)
// rounds w.h.p. with ℓ = O(log n) samples per half and O(log ℓ) bits of
// memory per agent.
package core

import (
	"fmt"
	"math"

	"passivespread/internal/rng"
	"passivespread/internal/sim"
)

// DefaultC is the default multiplier in the sample-size rule
// ℓ = ⌈DefaultC · log₂ n⌉. The paper's proof needs a large constant
// (c > max(2/δ², 32C²/δ²)) asymptotically; empirically the dynamics'
// shape is already stable at small constants, and every experiment can
// override it.
const DefaultC = 3

// SampleSize returns the paper's ℓ = ⌈c·log₂ n⌉ for a population of n,
// with a floor of 1.
func SampleSize(n int, c float64) int {
	if n < 2 {
		return 1
	}
	ell := int(math.Ceil(c * math.Log2(float64(n))))
	if ell < 1 {
		ell = 1
	}
	return ell
}

// FET is the Follow the Emerging Trend protocol (Protocol 1).
type FET struct {
	ell int
}

var _ sim.Protocol = (*FET)(nil)

// NewFET returns the FET protocol with per-half sample size ell (each
// agent observes 2·ell agents per round). It panics if ell < 1.
func NewFET(ell int) *FET {
	if ell < 1 {
		panic(fmt.Sprintf("core: NewFET with ell = %d", ell))
	}
	return &FET{ell: ell}
}

// Name implements sim.Protocol.
func (f *FET) Name() string { return fmt.Sprintf("FET(ℓ=%d)", f.ell) }

// Ell returns the per-half sample size ℓ.
func (f *FET) Ell() int { return f.ell }

// SamplesPerRound returns the total number of agents observed per round,
// 2ℓ (Theorem 1's accounting counts ℓ = O(log n) per half).
func (f *FET) SamplesPerRound() int { return 2 * f.ell }

// MemoryBits returns the bits of internal memory per agent: the stored
// count′′ ranges over {0, …, ℓ}, hence ⌈log₂(ℓ+1)⌉ bits — the O(log ℓ)
// of Theorem 1.
func (f *FET) MemoryBits() int {
	return int(math.Ceil(math.Log2(float64(f.ell + 1))))
}

// SampleSizes implements sim.Protocol.
func (f *FET) SampleSizes() []int { return []int{f.ell} }

// DrawsPerRound implements sim.FixedDraws: every Step makes exactly two
// declared CountOnes calls and no Sample calls, so on the tabulated fast
// path an agent consumes exactly two stream outputs per round — which
// the fast observer prefetches in one bulk fill.
func (f *FET) DrawsPerRound() int { return 2 }

// LockstepRule implements sim.TrendLockstep: FETAgent.Step is exactly
// the trend-compare rule with d = 2 (count′ compared, count′′ stored),
// so the lockstep replicate engine may replay it in its per-lane kernel
// with bit-identical results.
func (f *FET) LockstepRule() {}

// NewAgent implements sim.Protocol.
func (f *FET) NewAgent(*rng.Source) sim.Agent {
	return &FETAgent{ell: f.ell}
}

// FETAgent is the per-agent state of FET: just the previous round's
// count′′ — O(log ℓ) bits.
type FETAgent struct {
	ell       int
	prevCount int // count′′_{t−1}
}

var (
	_ sim.Agent            = (*FETAgent)(nil)
	_ sim.StateCorruptible = (*FETAgent)(nil)
	_ sim.TrendSeeder      = (*FETAgent)(nil)
	_ sim.AgentResetter    = (*FETAgent)(nil)
	_ sim.PrevCounter      = (*FETAgent)(nil)
	_ sim.FixedDraws       = (*FET)(nil)
	_ sim.TrendLockstep    = (*FET)(nil)
)

// ResetAgent implements sim.AgentResetter: a fresh FET agent stores
// count″ = 0, so pooled executors reset the field instead of
// reallocating the agent.
func (a *FETAgent) ResetAgent() { a.prevCount = 0 }

// Step implements sim.Agent.
func (a *FETAgent) Step(cur byte, obs sim.Observation) byte {
	countPrime := obs.CountOnes(a.ell)       // count′_t, compared with the past
	countDoublePrime := obs.CountOnes(a.ell) // count′′_t, stored for the future

	next := cur
	switch {
	case countPrime > a.prevCount:
		next = sim.OpinionOne
	case countPrime < a.prevCount:
		next = sim.OpinionZero
	}
	a.prevCount = countDoublePrime
	return next
}

// CorruptState implements sim.StateCorruptible: the adversary may place
// any value in the agent's memory, so pick a uniform count in {0, …, ℓ}.
func (a *FETAgent) CorruptState(src *rng.Source) {
	a.prevCount = src.Intn(a.ell + 1)
}

// SeedPrevCount implements sim.TrendSeeder. Seeding with an independent
// Binomial(ℓ, x0) draw per agent conditions the induced chain on
// x_{t−1} = x0.
func (a *FETAgent) SeedPrevCount(count int) {
	if count < 0 {
		count = 0
	}
	if count > a.ell {
		count = a.ell
	}
	a.prevCount = count
}

// PrevCount returns the stored count′′ (exposed for tests and the
// resource-accounting experiment).
func (a *FETAgent) PrevCount() int { return a.prevCount }

// SimpleTrend is the unpartitioned precursor of FET described at the start
// of Section 1.3: a single ℓ-sample count per round is both compared with
// the previous round's count and stored for the next comparison. This
// couples Y_{t+1} and Y_{t+2} (a large count_t makes Y_{t+1} lean 1 and
// Y_{t+2} lean 0), which is exactly the dependence that motivated the
// partitioned FET. It is retained as an ablation baseline (experiment
// E14): it works in practice but is harder to analyze.
type SimpleTrend struct {
	ell int
}

var _ sim.Protocol = (*SimpleTrend)(nil)

// NewSimpleTrend returns the unpartitioned trend protocol with sample
// size ell. It panics if ell < 1.
func NewSimpleTrend(ell int) *SimpleTrend {
	if ell < 1 {
		panic(fmt.Sprintf("core: NewSimpleTrend with ell = %d", ell))
	}
	return &SimpleTrend{ell: ell}
}

// Name implements sim.Protocol.
func (s *SimpleTrend) Name() string { return fmt.Sprintf("SimpleTrend(ℓ=%d)", s.ell) }

// Ell returns the per-round sample size ℓ.
func (s *SimpleTrend) Ell() int { return s.ell }

// SamplesPerRound returns ℓ: the unpartitioned variant reuses one count.
func (s *SimpleTrend) SamplesPerRound() int { return s.ell }

// SampleSizes implements sim.Protocol.
func (s *SimpleTrend) SampleSizes() []int { return []int{s.ell} }

// DrawsPerRound implements sim.FixedDraws: one declared CountOnes call
// per Step, no Sample calls.
func (s *SimpleTrend) DrawsPerRound() int { return 1 }

// LockstepRule implements sim.TrendLockstep: SimpleTrendAgent.Step is
// the trend-compare rule with d = 1 (the single count both compared and
// stored).
func (s *SimpleTrend) LockstepRule() {}

// NewAgent implements sim.Protocol.
func (s *SimpleTrend) NewAgent(*rng.Source) sim.Agent {
	return &SimpleTrendAgent{ell: s.ell}
}

// SimpleTrendAgent is the per-agent state of SimpleTrend.
type SimpleTrendAgent struct {
	ell       int
	prevCount int // count_{t−1}
}

var (
	_ sim.Agent            = (*SimpleTrendAgent)(nil)
	_ sim.StateCorruptible = (*SimpleTrendAgent)(nil)
	_ sim.TrendSeeder      = (*SimpleTrendAgent)(nil)
	_ sim.AgentResetter    = (*SimpleTrendAgent)(nil)
	_ sim.PrevCounter      = (*SimpleTrendAgent)(nil)
	_ sim.FixedDraws       = (*SimpleTrend)(nil)
	_ sim.TrendLockstep    = (*SimpleTrend)(nil)
)

// ResetAgent implements sim.AgentResetter.
func (a *SimpleTrendAgent) ResetAgent() { a.prevCount = 0 }

// Step implements sim.Agent.
func (a *SimpleTrendAgent) Step(cur byte, obs sim.Observation) byte {
	count := obs.CountOnes(a.ell)
	next := cur
	switch {
	case count > a.prevCount:
		next = sim.OpinionOne
	case count < a.prevCount:
		next = sim.OpinionZero
	}
	a.prevCount = count
	return next
}

// CorruptState implements sim.StateCorruptible.
func (a *SimpleTrendAgent) CorruptState(src *rng.Source) {
	a.prevCount = src.Intn(a.ell + 1)
}

// SeedPrevCount implements sim.TrendSeeder.
func (a *SimpleTrendAgent) SeedPrevCount(count int) {
	if count < 0 {
		count = 0
	}
	if count > a.ell {
		count = a.ell
	}
	a.prevCount = count
}

// PrevCount returns the stored count.
func (a *SimpleTrendAgent) PrevCount() int { return a.prevCount }
