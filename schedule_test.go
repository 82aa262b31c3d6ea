package passivespread

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestStudyRefusedBatchSpreadsReplicates: a Batch the lockstep executor
// refuses (here: a graph topology) must not serialize replicates. A
// 16-replicate Study at Batch 8 and Workers 4 runs one replicate per
// task, so 4 replicates are in flight at once, counted by the
// observers Observe attaches, from a replicate's first round to its
// last. Each replicate waits in its first round until 4 have started or
// a second passes, so the count does not depend on how fast the host
// runs.
func TestStudyRefusedBatchSpreadsReplicates(t *testing.T) {
	regular, err := ParseTopology("random-regular:8")
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 6
	var (
		mu             sync.Mutex
		inflight, peak int
	)
	observe := func(int) []Observer {
		return []Observer{ObserverFunc(func(ev RoundEvent) error {
			switch ev.Round {
			case 0:
				mu.Lock()
				inflight++
				if inflight > peak {
					peak = inflight
				}
				mu.Unlock()
				for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
					mu.Lock()
					p := peak
					mu.Unlock()
					if p >= 4 {
						break
					}
				}
			case rounds - 1:
				mu.Lock()
				inflight--
				mu.Unlock()
			}
			return nil
		})}
	}
	cfg := Config{
		N: 256, Protocol: NewFET(SampleSize(256)), Init: AllWrong(OpinionOne), Topology: regular,
		MaxRounds: rounds, RunToEnd: true, Seed: 3,
	}
	study := mustStudy(t, StudySpec{Replicates: 16, Workers: 4, Batch: 8, Config: &cfg, Observe: observe})
	if got := study.LockstepRefusal(); got != "topology" {
		t.Fatalf("LockstepRefusal = %q, want topology", got)
	}
	if _, err := study.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if peak != 4 {
		t.Fatalf("%d replicates in flight at most, want 4 (Workers)", peak)
	}
}

// TestSweepStreamCheapestFirst: at Workers 1 the scheduler runs one
// task at a time in feed order, so rows arrive in nondecreasing
// work-estimate order (∝ N agent, ∝ ℓ² aggregate, ∝ ℓ chain), ties in
// cell order — not in grid order.
func TestSweepStreamCheapestFirst(t *testing.T) {
	sw, err := NewSweep(SweepSpec{
		Ns:         []int{64, 256, 1024},
		Engines:    []EngineKind{EngineAgentFast, EngineAggregate, EngineMarkovChain},
		Scenarios:  mustScenarios("worst-case", "half-split"),
		Replicates: 4,
		Workers:    1,
		Batch:      4,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := sw.cells
	if got, want := c[0].cost(), 64; got != want {
		t.Errorf("agent cell cost %d, want N = %d", got, want)
	}
	if got, want := c[3].cost(), c[3].meta.Ell*c[3].meta.Ell; got != want {
		t.Errorf("aggregate cell cost %d, want ℓ² = %d", got, want)
	}
	if got, want := c[6].cost(), c[6].meta.Ell; got != want {
		t.Errorf("chain cell cost %d, want ℓ = %d", got, want)
	}
	var order []int
	for row := range sw.Stream(context.Background()) {
		order = append(order, row.Cell)
	}
	if len(order) != len(c) {
		t.Fatalf("%d rows, want %d", len(order), len(c))
	}
	inverted := false
	for i := 1; i < len(order); i++ {
		prev, cur := order[i-1], order[i]
		if c[cur].cost() < c[prev].cost() || (c[cur].cost() == c[prev].cost() && cur < prev) {
			t.Fatalf("row %d (cell %d, cost %d) delivered after cell %d (cost %d)",
				i, cur, c[cur].cost(), prev, c[prev].cost())
		}
		inverted = inverted || cur < prev
	}
	if !inverted {
		t.Fatalf("rows arrived in grid order %v; the grid was built so the cost order differs", order)
	}
}

// TestSweepSharedPoolMatchesStudies: the cells of one executor shape —
// same engine, n, sources, protocol and topology, different scenario
// (initializer, noise, CorruptStates, flip) — lease each other's
// executors from the sweep's shared pool, sequential and lockstep. Every
// row must equal its cell run alone as a fresh Study.
func TestSweepSharedPoolMatchesStudies(t *testing.T) {
	scenarios := mustScenarios("worst-case", "half-split", "uniform", "clean-start", "noisy", "trend-flip")
	for _, batch := range []int{1, 8} {
		sw, err := NewSweep(SweepSpec{
			Ns: []int{512}, Scenarios: scenarios, Replicates: 16, Workers: 2, Batch: batch, Seed: 13,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range sw.cells {
			if sw.cells[i].shape != sw.cells[0].shape {
				t.Fatalf("cell %d has another executor shape than cell 0", i)
			}
		}
		rep, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i, cell := range sw.cells {
			cfg := cell.study.cfg
			alone, err := mustStudy(t, StudySpec{Replicates: 16, Workers: 1, Config: &cfg}).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want, _ := sw.row(i, alone.Results)
			if !reflect.DeepEqual(rep.Rows[i], want) {
				t.Errorf("batch %d, cell %d (%s): sweep row %+v, alone %+v", batch, i, cell.meta.Scenario, rep.Rows[i], want)
			}
		}
	}
}

// TestScheduleBitIdenticalWorkersBatch: whatever the schedule — cheapest
// first, width 1 for refused cells, lockstep batches, a shared pool —
// sweep CSVs are byte-identical at Workers {1, 2, 4} × Batch {1, 8}, on
// the complete topology across engines and on graph topologies.
func TestScheduleBitIdenticalWorkersBatch(t *testing.T) {
	regular, err := ParseTopology("random-regular:8")
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := ParseTopology("dynamic:8:0.2")
	if err != nil {
		t.Fatal(err)
	}
	grids := map[string]SweepSpec{
		"complete": {Ns: []int{128, 512}, Engines: []EngineKind{EngineAgentFast, EngineAggregate, EngineMarkovChain},
			Scenarios: mustScenarios("worst-case", "half-split")},
		"graph": {Ns: []int{128}, Topologies: []Topology{CompleteTopology(), regular, dynamic}, MaxRounds: 150,
			Scenarios: mustScenarios("worst-case", "noisy")},
	}
	for name, spec := range grids {
		spec.Replicates, spec.Seed = 12, 17
		want := ""
		for _, workers := range []int{1, 2, 4} {
			for _, batch := range []int{1, 8} {
				spec.Workers, spec.Batch = workers, batch
				got := runSweep(t, spec).CSV()
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("%s grid at Workers=%d Batch=%d:\n%s\nwant (Workers=1 Batch=1):\n%s", name, workers, batch, got, want)
				}
			}
		}
	}
}
