package passivespread

import (
	"reflect"
	"testing"

	"passivespread/internal/stats"
)

// TestParallelEngineBitIdentical: the acceptance bar for the parallel
// engine — byte-identical Results to the sequential fast engine for the
// same seed at every parallelism level, on the real FET protocol under
// the worst-case start.
func TestParallelEngineBitIdentical(t *testing.T) {
	base := Options{
		N:                4096,
		Seed:             9,
		RecordTrajectory: true,
	}
	ref, err := Disseminate(base)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Converged {
		t.Fatalf("reference run did not converge: %+v", ref)
	}
	for _, workers := range []int{0, 1, 2, 4, 13} {
		opts := base
		opts.Engine = EngineAgentParallel
		opts.Parallelism = workers
		got, err := Disseminate(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("parallelism %d diverged from the fast engine:\nfast:     %+v\nparallel: %+v",
				workers, ref, got)
		}
	}
}

// convergenceSample collects t_con over independent seeds for one engine.
func convergenceSample(t *testing.T, engine EngineKind, n, trials int, seedBase uint64) []float64 {
	t.Helper()
	out := make([]float64, 0, trials)
	for trial := 0; trial < trials; trial++ {
		res, err := Disseminate(Options{
			N:      n,
			Seed:   seedBase + uint64(trial),
			Engine: engine,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("engine %v trial %d did not converge", engine, trial)
		}
		out = append(out, float64(res.Round))
	}
	return out
}

// TestAggregateEngineMatchesAgentLevelKS: the occupancy engine must
// sample the same convergence-time distribution as the agent-level
// engine. Kolmogorov–Smirnov cross-check at n = 2¹² under the worst-case
// start (all wrong, corrupted memories).
func TestAggregateEngineMatchesAgentLevelKS(t *testing.T) {
	n := 1 << 12
	trials := 100
	if testing.Short() {
		trials = 30
	}
	agent := convergenceSample(t, EngineAgentFast, n, trials, 1000)
	aggregate := convergenceSample(t, EngineAggregate, n, trials, 500000)

	d := stats.KSStatistic(agent, aggregate)
	crit := stats.KSCriticalValue(len(agent), len(aggregate), 0.001)
	if d > crit {
		t.Fatalf("aggregate vs agent-level t_con distributions differ: KS %v > critical %v\nagent: %v\naggregate: %v",
			d, crit, agent, aggregate)
	}
}

// TestAggregateEngineHugePopulation: a worst-case dissemination at
// n = 10⁸ must complete through the public API (the hugescale example's
// headline claim). The occupancy engine makes this a sub-second run.
func TestAggregateEngineHugePopulation(t *testing.T) {
	res, err := Disseminate(Options{
		N:      100_000_000,
		Seed:   1,
		Engine: EngineAggregate,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("n = 10⁸ worst-case run did not converge: %+v", res)
	}
	if res.Round < 2 || res.Round > 100 {
		t.Fatalf("t_con = %d at n = 10⁸, outside the plausible polylog band", res.Round)
	}
}

// TestAggregateSubnormalPMFReplay replays worst-case seeds that used to
// panic at n = 2^20 (ℓ = 60): once the observed fraction came within
// ~5.6e-6 of 1, the binomial pmf's start term q^ℓ was subnormal, its
// mass drifted past Multinomial's tolerance, and the panic took down
// the replicate's goroutine — in fetserve, the whole daemon. Seed 81 is
// the first failing seed of a 0…599 scan.
func TestAggregateSubnormalPMFReplay(t *testing.T) {
	for _, seed := range []uint64{81, 88, 197} {
		res, err := Disseminate(Options{N: 1 << 20, Seed: seed, Engine: EngineAggregate})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: worst-case run did not converge: %+v", seed, res)
		}
	}
}
