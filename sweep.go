package passivespread

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"passivespread/internal/checkpoint"
	"passivespread/internal/rng"
	"passivespread/internal/sim"
	"passivespread/internal/stats"
	"passivespread/internal/topo"
)

// SweepSpec describes a parameter grid: the cross-product of the
// population, sample-size, engine, topology, and scenario axes, with
// Replicates independent runs per cell. A Sweep is the batch layer above Study —
// where a Study answers "what does this configuration do", a Sweep
// answers "what does the phase diagram look like".
//
// Cells expand in a fixed, documented order (see NewSweep) and cell c's
// study runs with root seed StreamSeed(Seed, c), from which replicate i
// derives StreamSeed(StreamSeed(Seed, c), i) — the repository's single
// SplitMix64 stream rule, applied twice. Seeds depend only on (root
// seed, cell index, replicate index), never on scheduling, so a sweep's
// rows are bit-identical at every Workers value.
type SweepSpec struct {
	// Ns is the population-size axis (required, each ≥ 2, no duplicates).
	Ns []int
	// Ells is the per-half sample-size axis. An entry of 0 selects the
	// default ℓ = ⌈c·log₂ n⌉ for each cell's n. Nil means [0].
	Ells []int
	// C overrides the sample-size constant used when an Ells entry is 0
	// (0 = DefaultC; must be positive otherwise).
	C float64
	// Engines is the engine axis (nil = [EngineAgentFast]). Scenarios
	// with a custom runner define their own scheduling and require this
	// axis to have at most one entry.
	Engines []EngineKind
	// Topologies is the observation-topology axis (nil = [complete],
	// the paper's uniform mixing). Non-complete entries require agent
	// engines: crossing them with EngineAggregate or EngineMarkovChain,
	// with a custom-runner scenario, or with a scenario that pins its own
	// Topology is rejected up front with ErrInvalidOptions. Entries are
	// identified by Topology.Name() in cells, rows and artifacts.
	Topologies []Topology
	// Scenarios is the scenario axis (nil = the worst-case preset).
	// Entries need not be registered; they are validated directly.
	Scenarios []Scenario
	// Replicates is the number of runs per cell (required, ≥ 1).
	Replicates int
	// Workers bounds the sweep's one shared worker pool (0 = GOMAXPROCS).
	// Cells and replicates draw from the same budget: all
	// cells × replicates work items feed one pool, cheapest cell first
	// (see Sweep.Stream), so small cells cannot starve the grid and the
	// last straggler cell still saturates the hardware. Scheduling never
	// affects results.
	Workers int
	// Batch is the per-cell lockstep width W (see StudySpec.Batch): a
	// worker claims up to W consecutive replicates of one cell and runs
	// them in lockstep when the lockstep executor accepts the cell's
	// configuration (SweepCell.LockstepRefusal is ""); other cells run
	// one replicate per task. 0 or 1 disables batching; the maximum is
	// MaxBatch. Custom-runner scenarios and EngineMarkovChain cells
	// always run per-replicate. Like Workers, Batch never affects results.
	Batch int
	// Seed is the sweep's root seed.
	Seed uint64
	// MaxRounds overrides the per-cell round cap (0 = 400·log₂ n per
	// cell).
	MaxRounds int
	// Parallelism bounds EngineAgentParallel's inner worker count per
	// replicate (0 = 1: the sweep already parallelizes across cells and
	// replicates, so inner sharding would only oversubscribe the CPUs —
	// set this explicitly to shard within replicates anyway). Any value
	// yields bit-identical results.
	Parallelism int
	// Shard restricts execution to a deterministic 1/m slice of the
	// grid: shard i of m owns every cell c with c mod m == i−1 (zero
	// value = the whole grid). Sharding only selects which cells run —
	// the grid, its cell indices, seeds, and keys stay those of the
	// full sweep — so m runners' outputs merge (MergeShards, fetmerge)
	// into bytes identical to a single runner's.
	Shard Shard
	// CheckpointDir enables durable per-cell checkpoints: each cell's
	// row is persisted to this directory (atomic JSON envelopes keyed
	// by the cell's canonical fetcell key hash) the moment the cell
	// completes, and a rerun pointed at the same directory skips every
	// validly checkpointed cell, resuming mid-grid after a crash or
	// kill to byte-identical output. "" disables checkpointing.
	// Requires every grid cell to be expressible as a canonical cell
	// key (all registered-scenario sweeps are).
	CheckpointDir string
}

// SweepCell identifies one grid cell of a prepared Sweep.
type SweepCell struct {
	// Index is the cell's position in expansion order.
	Index int
	// Scenario is the cell's scenario name.
	Scenario string
	// Engine is the display name of what executes the cell (an engine
	// name, or a custom-runner scenario's EngineLabel).
	Engine string
	// Topology is the canonical name of the cell's observation topology
	// ("complete" under uniform mixing).
	Topology string
	// N and Ell are the resolved grid values.
	N, Ell int
	// MaxRounds is the cell's resolved round cap (the spec override, or
	// 400·log₂ n for this cell's n).
	MaxRounds int
	// Seed is the cell's derived root seed, StreamSeed(sweep seed, Index).
	Seed uint64
	// LockstepRefusal names the part of the cell the lockstep executor
	// refuses — "engine", "topology", "protocol" or "StateInit" — so its
	// replicates run one at a time whatever the Batch; "" when the
	// executor accepts the cell.
	LockstepRefusal string
}

// SweepRow is one cell's aggregated outcome. Rows marshal directly to
// the sweep's CSV and JSON artifacts.
type SweepRow struct {
	// Cell is the cell index in expansion order.
	Cell int `json:"cell"`
	// Scenario, Engine and Topology name the cell's conditions.
	Scenario string `json:"scenario"`
	Engine   string `json:"engine"`
	Topology string `json:"topology"`
	// N and Ell are the resolved grid values.
	N   int `json:"n"`
	Ell int `json:"ell"`
	// Seed is the cell's derived root seed.
	Seed uint64 `json:"seed"`
	// Replicates is the number of runs aggregated.
	Replicates int `json:"replicates"`
	// Converged counts replicates that met the absorption criterion.
	Converged int `json:"converged"`
	// SuccessRate is Converged / Replicates.
	SuccessRate float64 `json:"success_rate"`
	// Mean, Median, P95 and Max summarize the replicate convergence
	// times, with non-converged replicates censored at their executed
	// round count.
	Mean   float64 `json:"mean_rounds"`
	Median float64 `json:"median_rounds"`
	P95    float64 `json:"p95_rounds"`
	Max    float64 `json:"max_rounds"`
	// Err is the first replicate failure, if any (statistics are zero
	// then). Context cancellation never surfaces here: interrupted cells
	// are dropped, not reported.
	Err string `json:"error,omitempty"`
}

// SweepReport is the aggregate output of Sweep.Run: completed rows in
// cell order plus the planned grid size.
type SweepReport struct {
	// Cells is the full grid size — also for sharded runs, whose Rows
	// hold only the shard's partition class.
	Cells int `json:"cells"`
	// Replicates is the per-cell replicate count.
	Replicates int `json:"replicates"`
	// Rows holds the completed cells ordered by cell index. After a
	// cancelled run this may be a prefix-complete subset of the grid.
	Rows []SweepRow `json:"rows"`
}

// sweepCell pairs a cell's public identity with its executable form, a
// prepared Study: an engine Study (synchronous engines, chain) or a
// scenario runner's, whose replicates call the runner.
type sweepCell struct {
	meta  SweepCell
	study *Study
	// shape is the executor shape the cell's replicates lease from the
	// sweep's pool (zero for cells that lease none).
	shape sim.Shape
}

// cost is the cell's deterministic per-replicate work estimate, from
// its own parameters: ∝ N for agent engines and scenario runners (whose
// zero cfg reads as agent-fast), ∝ ℓ² for the aggregate engines and ∝ ℓ
// for the chain. Sweep.Stream feeds cheap cells first; the estimate
// never affects results.
func (c *sweepCell) cost() int {
	switch {
	case c.study.chain:
		return c.meta.Ell
	case c.study.cfg.Engine == EngineAggregate || c.study.cfg.Engine == EngineAggregateSparse:
		return c.meta.Ell * c.meta.Ell
	}
	return c.meta.N
}

// Sweep is a prepared parameter grid. Construct with NewSweep; run with
// Run (ordered report) or Stream (rows as cells finish).
type Sweep struct {
	cells      []sweepCell
	replicates int
	workers    int
	seed       uint64
	shard      Shard
	planned    []int // cell indices this shard owns, ascending

	// pool is shared by every cell: cells of one shape reuse each
	// other's executors (Stream drops a shape's idle executors once no
	// remaining cell has it).
	pool *sim.Pool

	ckpt    *checkpoint.Store
	keys    []string // canonical cell keys, set iff ckpt != nil
	ckptMu  sync.Mutex
	ckptErr error
}

// NewSweep validates spec, expands the grid, and prepares every cell
// (all per-cell validation happens here, not mid-run).
//
// Cells expand scenario-major: for each scenario, for each engine, for
// each topology, for each n, for each ℓ — so cell index =
// (((s·|Engines| + e)·|Topologies| + t)·|Ns| + n)·|Ells| + ℓ in axis
// order. The expansion order is part of the seed contract: reordering
// axis values re-seeds cells, while changing Replicates, Workers, or
// axis *lengths elsewhere in the grid* does not affect a cell with the
// same index. A nil Topologies axis is the singleton [complete], so
// pre-topology sweeps keep their exact cell indices and seeds.
func NewSweep(spec SweepSpec) (*Sweep, error) {
	if spec.Replicates < 1 {
		return nil, fmt.Errorf("%w: Replicates: %d, want ≥ 1", ErrInvalidOptions, spec.Replicates)
	}
	if spec.Workers < 0 {
		return nil, fmt.Errorf("%w: Workers: %d, want ≥ 0", ErrInvalidOptions, spec.Workers)
	}
	if spec.Batch < 0 || spec.Batch > MaxBatch {
		return nil, fmt.Errorf("%w: Batch: %d, want 0…%d", ErrInvalidOptions, spec.Batch, MaxBatch)
	}
	if spec.MaxRounds < 0 {
		return nil, fmt.Errorf("%w: MaxRounds: %d, want ≥ 0", ErrInvalidOptions, spec.MaxRounds)
	}
	if spec.C < 0 || math.IsNaN(spec.C) {
		return nil, fmt.Errorf("%w: C: %v, want > 0 (0 = DefaultC)", ErrInvalidOptions, spec.C)
	}
	if err := spec.Shard.validate(); err != nil {
		return nil, err
	}
	if len(spec.Ns) == 0 {
		return nil, fmt.Errorf("%w: Ns: axis is empty", ErrInvalidOptions)
	}
	seenN := make(map[int]bool, len(spec.Ns))
	for _, n := range spec.Ns {
		if n < 2 {
			return nil, fmt.Errorf("%w: Ns: population size %d, want ≥ 2", ErrInvalidOptions, n)
		}
		if seenN[n] {
			return nil, fmt.Errorf("%w: Ns: duplicate population size %d", ErrInvalidOptions, n)
		}
		seenN[n] = true
	}
	ells := spec.Ells
	if len(ells) == 0 {
		ells = []int{0}
	}
	seenEll := make(map[int]bool, len(ells))
	for _, ell := range ells {
		if ell < 0 {
			return nil, fmt.Errorf("%w: Ells: sample size %d, want ≥ 0", ErrInvalidOptions, ell)
		}
		if seenEll[ell] {
			return nil, fmt.Errorf("%w: Ells: duplicate sample size %d", ErrInvalidOptions, ell)
		}
		seenEll[ell] = true
	}
	engines := spec.Engines
	if len(engines) == 0 {
		engines = []EngineKind{EngineAgentFast}
	}
	seenEng := make(map[EngineKind]bool, len(engines))
	for _, e := range engines {
		if seenEng[e] {
			return nil, fmt.Errorf("%w: Engines: duplicate engine %s", ErrInvalidOptions, EngineName(e))
		}
		seenEng[e] = true
	}
	topologies := spec.Topologies
	if len(topologies) == 0 {
		topologies = []Topology{nil} // uniform mixing, the default
	}
	anySparse := false
	seenTopo := make(map[string]bool, len(topologies))
	for _, tp := range topologies {
		name := topo.DisplayName(tp)
		if seenTopo[name] {
			return nil, fmt.Errorf("%w: Topologies: duplicate topology %q", ErrInvalidOptions, name)
		}
		seenTopo[name] = true
		if topo.IsComplete(tp) {
			for _, e := range engines {
				if e == EngineAggregateSparse {
					return nil, fmt.Errorf("%w: Engines: engine %s requires a degree-annealed sparse topology and cannot cross %q; sweep it separately",
						ErrInvalidOptions, EngineName(e), name)
				}
			}
			continue
		}
		anySparse = true
		// Engine/topology incompatibilities fail for the whole grid, up
		// front: the exact engines are exact only under uniform mixing,
		// and the sparse occupancy engine models annealed degrees only.
		_, annealed := topo.AnnealedDegree(tp)
		for _, e := range engines {
			if e == EngineAggregate || e == EngineMarkovChain {
				return nil, fmt.Errorf("%w: Engines: engine %s is exact only under uniform mixing and cannot cross topology %q; sweep it separately",
					ErrInvalidOptions, EngineName(e), name)
			}
			if e == EngineAggregateSparse && !annealed {
				return nil, fmt.Errorf("%w: Engines: engine %s models degree-annealed topologies only and cannot cross %q; sweep it separately",
					ErrInvalidOptions, EngineName(e), name)
			}
		}
	}
	scenarios := spec.Scenarios
	if len(scenarios) == 0 {
		sc, ok := ScenarioByName(DefaultScenario)
		if !ok {
			return nil, fmt.Errorf("%w: Scenarios: default scenario %q is not registered", ErrInvalidOptions, DefaultScenario)
		}
		scenarios = []Scenario{sc}
	}
	seenSc := make(map[string]bool, len(scenarios))
	for _, sc := range scenarios {
		if err := sc.validate(); err != nil {
			return nil, err
		}
		if seenSc[sc.Name] {
			return nil, fmt.Errorf("%w: Scenarios: duplicate scenario %q", ErrInvalidOptions, sc.Name)
		}
		seenSc[sc.Name] = true
		if sc.Run != nil && len(engines) > 1 {
			return nil, fmt.Errorf("%w: Scenarios: scenario %q has its own scheduler and cannot cross the engine axis %v; sweep it separately",
				ErrInvalidOptions, sc.Name, engineNames(engines))
		}
		if anySparse && sc.Run != nil {
			return nil, fmt.Errorf("%w: Scenarios: scenario %q has its own scheduler and cannot cross a non-complete topology axis; sweep it separately",
				ErrInvalidOptions, sc.Name)
		}
		if sc.Topology != nil && (anySparse || len(topologies) > 1) {
			return nil, fmt.Errorf("%w: Scenarios: scenario %q pins topology %q and cannot cross the topology axis; sweep it separately",
				ErrInvalidOptions, sc.Name, sc.Topology.Name())
		}
	}

	c := spec.C
	if c == 0 {
		c = DefaultC
	}
	parallelism := spec.Parallelism
	if parallelism == 0 {
		parallelism = 1
	}
	s := &Sweep{replicates: spec.Replicates, seed: spec.Seed, shard: spec.Shard, pool: sim.NewPool()}
	s.cells = make([]sweepCell, 0, len(scenarios)*len(engines)*len(topologies)*len(spec.Ns)*len(ells))
	for _, sc := range scenarios {
		for _, engine := range engines {
			for _, axisTopo := range topologies {
				// A scenario that pins its own topology wins; validation
				// above guarantees the axis is the default [complete] then.
				cellTopo := axisTopo
				if sc.Topology != nil {
					cellTopo = sc.Topology
				}
				for _, n := range spec.Ns {
					for _, specEll := range ells {
						idx := len(s.cells)
						ell := specEll
						if ell == 0 {
							ell = SampleSizeC(n, c)
						}
						maxRounds := spec.MaxRounds
						if maxRounds == 0 {
							maxRounds = DefaultMaxRounds(n)
						}
						cell, err := newSweepCell(idx, sc, engine, cellTopo, n, ell, maxRounds, parallelism,
							rng.StreamSeed(spec.Seed, uint64(idx)), spec.Replicates, spec.Batch, s.pool)
						if err != nil {
							return nil, fmt.Errorf("cell %d (scenario %s, engine %s, topology %s, n=%d, ℓ=%d): %w",
								idx, sc.Name, EngineName(engine), topo.DisplayName(cellTopo), n, ell, err)
						}
						s.cells = append(s.cells, cell)
					}
				}
			}
		}
	}

	// The shard's share of the grid: its cell indices in ascending
	// (expansion) order. An unsharded sweep owns every cell; a shard
	// with no cells (m > grid size, high index) is a valid empty run.
	for idx := range s.cells {
		if s.shard.owns(idx) {
			s.planned = append(s.planned, idx)
		}
	}

	if spec.CheckpointDir != "" {
		keys, err := s.canonicalKeys()
		if err != nil {
			return nil, err
		}
		store, err := checkpoint.Open(spec.CheckpointDir)
		if err != nil {
			return nil, fmt.Errorf("%w: CheckpointDir: %v", ErrInvalidOptions, err)
		}
		s.keys = keys
		s.ckpt = store
	}

	s.workers = resolveWorkers(spec.Workers, len(s.planned)*spec.Replicates)
	return s, nil
}

// newSweepCell prepares one grid cell; its replicates lease executors
// from pool.
func newSweepCell(idx int, sc Scenario, engine EngineKind, cellTopo Topology, n, ell, maxRounds, parallelism int,
	cellSeed uint64, replicates, batch int, pool *sim.Pool) (sweepCell, error) {
	cell := sweepCell{meta: SweepCell{
		Index:     idx,
		Scenario:  sc.Name,
		Engine:    EngineName(engine),
		Topology:  topo.DisplayName(cellTopo),
		N:         n,
		Ell:       ell,
		MaxRounds: maxRounds,
		Seed:      cellSeed,
	}}
	if sc.Run != nil {
		cell.meta.Engine = sc.EngineLabel
		if cell.meta.Engine == "" {
			cell.meta.Engine = sc.Name
		}
	}
	study, err := newCellStudy(sc, engine, cellTopo, n, ell, maxRounds, parallelism, cellSeed, replicates, 1, batch)
	if err != nil {
		return cell, err
	}
	study.pool = pool
	cell.study = study
	cell.shape = sim.ShapeOf(study.cfg) // zero for chain and runner cells, which lease nothing
	cell.meta.LockstepRefusal = study.LockstepRefusal()
	return cell, nil
}

// newCellStudy prepares the Study behind one grid cell, for a Sweep or
// fetserve: the scenario's runner when it has one, else the engine.
func newCellStudy(sc Scenario, engine EngineKind, cellTopo Topology, n, ell, maxRounds, parallelism int,
	seed uint64, replicates, workers, batch int) (*Study, error) {
	switch {
	case sc.Run != nil:
		init, sources := sc.resolved()
		return &Study{replicates: replicates, workers: resolveWorkers(workers, replicates), width: 1,
			refusal: sim.RefusedEngine, rootSeed: seed, runner: sc.Run,
			params: ScenarioParams{N: n, Ell: ell, Sources: sources, MaxRounds: maxRounds, Init: init}}, nil
	case engine == EngineMarkovChain:
		if !sc.chainCompatible() {
			return nil, fmt.Errorf("%w: Scenarios: scenario %q is not expressible on the Markov-chain engine", ErrInvalidOptions, sc.Name)
		}
		return NewStudy(StudySpec{Replicates: replicates, Workers: workers, Options: sc.options(n, ell, maxRounds, seed)})
	default:
		cfg := sc.config(n, ell, maxRounds, engine, cellTopo, parallelism, seed)
		return NewStudy(StudySpec{Replicates: replicates, Workers: workers, Batch: batch, Config: &cfg})
	}
}

func engineNames(engines []EngineKind) []string {
	out := make([]string, len(engines))
	for i, e := range engines {
		out[i] = EngineName(e)
	}
	return out
}

// Cells returns the planned grid in expansion order, with each cell's
// derived seed — the sweep-level view of the seed contract.
func (s *Sweep) Cells() []SweepCell {
	out := make([]SweepCell, len(s.cells))
	for i, c := range s.cells {
		out[i] = c.meta
	}
	return out
}

// Replicates returns the per-cell replicate count.
func (s *Sweep) Replicates() int { return s.replicates }

// Workers returns the resolved shared worker-pool size.
func (s *Sweep) Workers() int { return s.workers }

// Shard returns the sweep's shard selector (zero value = whole grid).
func (s *Sweep) Shard() Shard { return s.shard }

// PlannedCells returns how many grid cells this sweep will execute —
// the whole grid unsharded, or this shard's partition class.
func (s *Sweep) PlannedCells() int { return len(s.planned) }

// CheckpointErr returns the first checkpoint-write failure of the
// current or last run, if any. Results delivered before or after the
// failure are still correct; only durability (resume skipping) is
// degraded. Run surfaces this error itself; Stream callers should
// check it after draining.
func (s *Sweep) CheckpointErr() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.ckptErr
}

// loadCheckpoint loads and verifies cell's checkpointed row: the
// envelope must be content-address-valid (checkpoint.Store.Load), and
// the row inside must describe exactly this cell — matching index,
// identity columns, seed, and replicate count. Anything less is a miss
// (as is every cell without a checkpoint store) and the cell re-runs,
// which is always correct.
func (s *Sweep) loadCheckpoint(cell int) (SweepRow, bool) {
	if s.ckpt == nil {
		return SweepRow{}, false
	}
	body, ok := s.ckpt.Load(s.keys[cell])
	if !ok {
		return SweepRow{}, false
	}
	var row SweepRow
	if err := json.Unmarshal(body, &row); err != nil {
		return SweepRow{}, false
	}
	m := s.cells[cell].meta
	if row.Cell != m.Index || row.Scenario != m.Scenario || row.Engine != m.Engine ||
		row.Topology != m.Topology || row.N != m.N || row.Ell != m.Ell ||
		row.Seed != m.Seed || row.Replicates != s.replicates || row.Err != "" {
		return SweepRow{}, false
	}
	return row, true
}

// saveCheckpoint persists a completed cell's row, recording the first
// write failure instead of aborting the grid (the row itself is still
// delivered).
func (s *Sweep) saveCheckpoint(cell int, row SweepRow) {
	body, err := sweepRowBody(row)
	if err == nil {
		err = s.ckpt.Save(s.keys[cell], body)
	}
	if err != nil {
		s.ckptMu.Lock()
		if s.ckptErr == nil {
			s.ckptErr = fmt.Errorf("passivespread: sweep cell %d: %w", cell, err)
		}
		s.ckptMu.Unlock()
	}
}

// Stream starts the sweep and returns a channel delivering each cell's
// SweepRow as its last replicate finishes (completion order; row content
// is deterministic regardless of order). All planned cells × replicates
// work items feed one shared worker pool; a sharded sweep plans only
// its own partition class. Cells are fed cheapest first by a
// deterministic work estimate from each cell's own parameters (∝ N for
// agent engines and scenario runners, ∝ ℓ² for the aggregate engines,
// ∝ ℓ for the chain; ties in cell order), so short cells' rows arrive
// before the long ones'. With a checkpoint directory configured,
// validly checkpointed cells are delivered up front (cell order) without
// running, and every newly completed cell is durably checkpointed before
// its row is delivered. The channel is closed once every planned cell
// has been delivered or the context has ended; after cancellation,
// completed cells already streamed stand, interrupted cells are dropped,
// and in-flight replicates finish within one simulated round. The caller
// must drain the channel or cancel ctx, or the pool leaks.
func (s *Sweep) Stream(ctx context.Context) <-chan SweepRow {
	out := make(chan SweepRow)
	go func() {
		defer close(out)
		// Resume pass: planned cells with a valid checkpoint replay
		// their stored row and never enter the pool; the rest run.
		todo := make([]int, 0, len(s.planned))
	restore:
		for _, c := range s.planned {
			row, ok := s.loadCheckpoint(c)
			if !ok {
				todo = append(todo, c)
				continue
			}
			select {
			case out <- row:
			case <-ctx.Done():
				break restore // cancelled: nothing more runs
			}
		}
		if ctx.Err() != nil {
			todo = nil
		}
		sort.SliceStable(todo, func(i, j int) bool { return s.cells[todo[i]].cost() < s.cells[todo[j]].cost() })

		studies := make([]*Study, len(todo))
		shapesLeft := make(map[sim.Shape]int)
		for i, c := range todo {
			studies[i] = s.cells[c].study
			shapesLeft[s.cells[c].shape]++
		}
		type scheduled struct {
			study int
			res   RunResult
		}
		results := make(chan scheduled)
		go func() {
			defer close(results)
			schedule(ctx, s.workers, studies, func(i int, r RunResult) bool {
				select {
				case results <- scheduled{i, r}:
					return true
				case <-ctx.Done():
					return false
				}
			})
		}()
		pending := make([][]RunResult, len(todo))
		received := make([]int, len(todo))
		for d := range results {
			if pending[d.study] == nil {
				pending[d.study] = make([]RunResult, s.replicates)
			}
			pending[d.study][d.res.Replicate] = d.res
			if received[d.study]++; received[d.study] < s.replicates {
				continue
			}
			cell := todo[d.study]
			row, ok := s.row(cell, pending[d.study])
			pending[d.study] = nil
			// The cell's last replicate returned its leased executor
			// before its result was delivered, so once no remaining cell
			// shares its shape the shape's idle executors can go.
			sh := s.cells[cell].shape
			if shapesLeft[sh]--; shapesLeft[sh] == 0 {
				s.pool.ReleaseShape(sh)
			}
			if !ok {
				continue // interrupted mid-run; drop, don't misreport
			}
			// Durability point: the checkpoint hits disk before the row
			// is delivered, so a consumer never sees a result the fabric
			// could lose. Rows carrying a replicate failure are not
			// persisted — a rerun re-attempts them.
			if s.ckpt != nil && row.Err == "" {
				s.saveCheckpoint(cell, row)
			}
			select {
			case out <- row:
			case <-ctx.Done():
				// The consumer may be gone; keep draining results so the
				// workers can exit.
			}
		}
		// Cancellation can leave interrupted cells' executors idle in the
		// pool; every worker has exited, so free them all.
		s.pool.Release()
	}()
	return out
}

// row aggregates one completed cell. It reports ok = false when a
// replicate was interrupted by context cancellation (the cell is then
// incomplete work, not a result).
func (s *Sweep) row(cell int, results []RunResult) (SweepRow, bool) {
	meta := s.cells[cell].meta
	row := SweepRow{
		Cell:       meta.Index,
		Scenario:   meta.Scenario,
		Engine:     meta.Engine,
		Topology:   meta.Topology,
		N:          meta.N,
		Ell:        meta.Ell,
		Seed:       meta.Seed,
		Replicates: s.replicates,
	}
	for i, r := range results {
		if r.Err == nil {
			continue
		}
		if errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded) {
			return SweepRow{}, false
		}
		if row.Err == "" {
			row.Err = fmt.Sprintf("replicate %d: %v", i, r.Err)
		}
	}
	if row.Err != "" {
		return row, true
	}
	times, converged := censorConvergence(results)
	conv := stats.SummarizeConvergence(times, converged)
	row.Converged = conv.Converged
	row.SuccessRate = conv.SuccessRate
	row.Mean = conv.Rounds.Mean
	row.Median = conv.Rounds.Median
	row.P95 = conv.Rounds.P95
	row.Max = conv.Rounds.Max
	return row, true
}

// Run executes the planned grid (the whole grid, or this shard's slice
// of it) across the shared worker pool and returns the rows ordered by
// cell index — bit-identical for any Workers value on a fixed root
// seed, whether cells ran fresh or replayed from checkpoints. On
// context cancellation Run returns the completed rows alongside
// ctx.Err(); on a replicate failure it returns the full report
// alongside an error naming the first failing cell; on a
// checkpoint-write failure it returns the complete report alongside
// the durability error.
func (s *Sweep) Run(ctx context.Context) (*SweepReport, error) {
	rep := &SweepReport{Cells: len(s.cells), Replicates: s.replicates}
	for row := range s.Stream(ctx) {
		rep.Rows = append(rep.Rows, row)
	}
	sort.Slice(rep.Rows, func(i, j int) bool { return rep.Rows[i].Cell < rep.Rows[j].Cell })
	if len(rep.Rows) < len(s.planned) {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		return rep, fmt.Errorf("passivespread: sweep lost %d of %d planned cells", len(s.planned)-len(rep.Rows), len(s.planned))
	}
	for _, row := range rep.Rows {
		if row.Err != "" {
			return rep, fmt.Errorf("passivespread: sweep cell %d (scenario %s, engine %s, n=%d, ℓ=%d): %s",
				row.Cell, row.Scenario, row.Engine, row.N, row.Ell, row.Err)
		}
	}
	if err := s.CheckpointErr(); err != nil {
		return rep, err
	}
	return rep, nil
}

// sweepCSVHeader is the column order of the CSV artifact. The topology
// column was added with the topology axis; rows from uniform-mixing
// sweeps carry "complete" there, and all other columns are unchanged
// from the pre-topology schema.
var sweepCSVHeader = []string{
	"cell", "scenario", "engine", "topology", "n", "ell", "seed", "replicates",
	"converged", "success_rate", "mean_rounds", "median_rounds", "p95_rounds", "max_rounds", "error",
}

// WriteCSV renders the report's rows as a CSV artifact. Formatting is
// deterministic (shortest round-trip float encoding), so equal reports
// render byte-identically.
func (r *SweepReport) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(sweepCSVHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, row := range r.Rows {
		rec := []string{
			strconv.Itoa(row.Cell), row.Scenario, row.Engine, row.Topology,
			strconv.Itoa(row.N), strconv.Itoa(row.Ell),
			strconv.FormatUint(row.Seed, 10), strconv.Itoa(row.Replicates),
			strconv.Itoa(row.Converged), f(row.SuccessRate),
			f(row.Mean), f(row.Median), f(row.P95), f(row.Max), row.Err,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CSV returns the report's CSV artifact as a string.
func (r *SweepReport) CSV() string {
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		// strings.Builder never errors; a csv quoting failure would be a
		// programming error in the renderer.
		panic(err)
	}
	return b.String()
}

// JSON returns the report as an indented JSON artifact.
func (r *SweepReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ParseSweepJSON parses a report rendered by SweepReport.JSON.
func ParseSweepJSON(data []byte) (*SweepReport, error) {
	var rep SweepReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("passivespread: parsing sweep JSON: %w", err)
	}
	return &rep, nil
}

// ParseSweepCSV parses rows rendered by SweepReport.WriteCSV.
func ParseSweepCSV(r io.Reader) ([]SweepRow, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("passivespread: parsing sweep CSV: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("passivespread: sweep CSV has no header")
	}
	if got, want := strings.Join(records[0], ","), strings.Join(sweepCSVHeader, ","); got != want {
		return nil, fmt.Errorf("passivespread: sweep CSV header %q, want %q", got, want)
	}
	rows := make([]SweepRow, 0, len(records)-1)
	for lineNo, rec := range records[1:] {
		if len(rec) != len(sweepCSVHeader) {
			return nil, fmt.Errorf("passivespread: sweep CSV row %d has %d fields, want %d", lineNo+2, len(rec), len(sweepCSVHeader))
		}
		var row SweepRow
		var parseErr error
		atoi := func(s string) int {
			v, err := strconv.Atoi(s)
			if err != nil && parseErr == nil {
				parseErr = err
			}
			return v
		}
		atof := func(s string) float64 {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil && parseErr == nil {
				parseErr = err
			}
			return v
		}
		row.Cell = atoi(rec[0])
		row.Scenario = rec[1]
		row.Engine = rec[2]
		row.Topology = rec[3]
		row.N = atoi(rec[4])
		row.Ell = atoi(rec[5])
		seed, err := strconv.ParseUint(rec[6], 10, 64)
		if err != nil && parseErr == nil {
			parseErr = err
		}
		row.Seed = seed
		row.Replicates = atoi(rec[7])
		row.Converged = atoi(rec[8])
		row.SuccessRate = atof(rec[9])
		row.Mean = atof(rec[10])
		row.Median = atof(rec[11])
		row.P95 = atof(rec[12])
		row.Max = atof(rec[13])
		row.Err = rec[14]
		if parseErr != nil {
			return nil, fmt.Errorf("passivespread: sweep CSV row %d: %w", lineNo+2, parseErr)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
