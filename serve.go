package passivespread

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"passivespread/internal/serve"
	"passivespread/internal/stats"
	"passivespread/internal/topo"
)

// This file wires the fetserve subsystem (internal/serve) to the
// simulation layers: the content-addressed cell key is re-exported, and
// serveBackend implements serve.Backend over the scenario registry and
// the Study API. The layering is deliberate: internal/serve knows HTTP,
// caching and metrics but nothing about simulations; this file knows
// simulations but nothing about HTTP; cmd/fetserve imports only the
// root package (per the repository's import-hygiene rule).

// CellKey is the canonical, content-addressed identity of one
// phase-diagram cell: scenario, engine, topology, grid values,
// replicate count, round cap, root seed, and any per-query overrides.
// Equal keys guarantee byte-identical fetserve answers; the key's
// SHA-256 is the cache address.
type CellKey = serve.CellKey

// CellKeyVersion is the canonical key schema version ("fetcell/v1").
const CellKeyVersion = serve.KeyVersion

// ParseCellKey parses a canonical cell-key string (the inverse of
// CellKey.Canonical).
func ParseCellKey(s string) (CellKey, error) { return serve.ParseCellKey(s) }

// Server is the fetserve HTTP service. Construct with NewServer and
// mount Handler() on any http.Server.
type Server = serve.Server

// ServeConfig configures NewServer.
type ServeConfig struct {
	// Workers bounds concurrent fallback-tier (agent-engine) studies
	// (0 = GOMAXPROCS). Saturation rejects with the overloaded code
	// rather than queueing; exact-tier and cached answers are never
	// gated. The value never affects answer bytes, only admission.
	Workers int
	// CacheBytes bounds the resident answer cache (0 = 64 MiB).
	CacheBytes int64
	// CacheDir enables the persistent disk cache ("" = memory only).
	CacheDir string
	// DefaultReplicates resolves a query's zero replicates field
	// (0 = 40, enough for a stable success-rate estimate).
	DefaultReplicates int
	// Batch is the lockstep width fallback-tier studies run with (see
	// StudySpec.Batch; 0 or 1 = sequential, max MaxBatch). Answer bytes
	// are identical at every width — batching only changes how fast the
	// fallback tier turns a cold cell into a cached answer.
	Batch int
}

// defaultServeReplicates is the replicate count a query gets when it
// does not ask for one.
const defaultServeReplicates = 40

// NewServer returns the fetserve service over the full scenario
// registry and engine set.
func NewServer(cfg ServeConfig) (*Server, error) {
	reps := cfg.DefaultReplicates
	if reps == 0 {
		reps = defaultServeReplicates
	}
	if reps < 1 {
		return nil, fmt.Errorf("%w: DefaultReplicates: %d, want ≥ 1", ErrInvalidOptions, cfg.DefaultReplicates)
	}
	if cfg.Batch < 0 || cfg.Batch > MaxBatch {
		return nil, fmt.Errorf("%w: Batch: %d, want 0…%d", ErrInvalidOptions, cfg.Batch, MaxBatch)
	}
	return serve.New(serve.Config{
		Backend:    &serveBackend{defaultReplicates: reps, batch: cfg.Batch},
		Workers:    cfg.Workers,
		CacheBytes: cfg.CacheBytes,
		CacheDir:   cfg.CacheDir,
	})
}

// CellKeys returns the canonical cell key of every planned sweep cell,
// in expansion order: the serving-layer identity of each future CSV
// row, so a sweep's artifacts can be cross-checked against (or warmed
// into) a fetserve cache. Keys name scenarios by preset name; for
// unregistered custom scenarios the key is only meaningful to a server
// whose registry resolves that name to the same preset.
func (s *Sweep) CellKeys() []CellKey {
	out := make([]CellKey, len(s.cells))
	for i := range s.cells {
		m := s.cells[i].meta
		out[i] = CellKey{
			Scenario:   m.Scenario,
			Engine:     m.Engine,
			Topology:   m.Topology,
			N:          m.N,
			Ell:        m.Ell,
			Replicates: s.replicates,
			MaxRounds:  m.MaxRounds,
			Seed:       m.Seed,
		}
	}
	return out
}

// serveBackend implements serve.Backend over the scenario registry,
// ParseTopology/ParseEngine, and the Study API.
type serveBackend struct {
	defaultReplicates int
	// batch is the lockstep width for fallback-tier studies (0/1 =
	// sequential); it never changes answer bytes.
	batch int
}

// resolvedCell is a key plus its executable ingredients.
type resolvedCell struct {
	key      CellKey
	scenario Scenario // overrides applied
	engine   EngineKind
	topology Topology
}

// invalidf builds an invalidArgument error in "field: reason" form.
func invalidf(format string, args ...interface{}) error {
	return serve.Errorf(serve.CodeInvalidArgument, format, args...)
}

// asToolError maps repository validation failures onto typed tool
// errors: an ErrInvalidOptions message becomes an invalidArgument
// payload verbatim (minus the sentinel prefix), anything else stays
// as-is (the transport layer reports it as internal).
func asToolError(err error) error {
	if errors.Is(err, ErrInvalidOptions) {
		return invalidf("%s", strings.TrimPrefix(err.Error(), ErrInvalidOptions.Error()+": "))
	}
	return err
}

// parseEngineName accepts both the CLI parse names ("fast", "chain")
// and the canonical display names ("agent-fast", "markov-chain"), so
// keys and sweep artifacts round-trip through queries.
func parseEngineName(name string) (EngineKind, error) {
	switch name {
	case "agent-fast":
		return EngineAgentFast, nil
	case "agent-exact":
		return EngineAgentExact, nil
	case "agent-parallel":
		return EngineAgentParallel, nil
	case "markov-chain":
		return EngineMarkovChain, nil
	}
	return ParseEngine(name)
}

// Resolve canonicalizes a query into its cell key: defaults resolved,
// overrides normalized against the preset, names canonicalized, and
// engine/topology compatibility checked — all without running
// anything, because the cache-hit path pays this cost on every request.
func (b *serveBackend) Resolve(q serve.Query) (CellKey, error) {
	name := q.Scenario
	if name == "" {
		name = DefaultScenario
	}
	sc, ok := ScenarioByName(name)
	if !ok {
		return CellKey{}, serve.Errorf(serve.CodeNotFound,
			"scenario: %q is not registered; see %s", name, serve.ToolScenariosList)
	}
	if q.N < 2 {
		return CellKey{}, invalidf("n: %d, want ≥ 2", q.N)
	}
	if q.Ell < 0 {
		return CellKey{}, invalidf("ell: %d, want ≥ 0 (0 = ⌈3·log₂ n⌉)", q.Ell)
	}
	if q.Replicates < 0 {
		return CellKey{}, invalidf("replicates: %d, want ≥ 0 (0 = server default)", q.Replicates)
	}
	if q.MaxRounds < 0 {
		return CellKey{}, invalidf("max_rounds: %d, want ≥ 0 (0 = 400·log₂ n)", q.MaxRounds)
	}

	key := CellKey{Scenario: name, N: q.N, Seed: q.Seed}
	key.Ell = q.Ell
	if key.Ell == 0 {
		key.Ell = SampleSize(q.N)
	}
	key.MaxRounds = q.MaxRounds
	if key.MaxRounds == 0 {
		key.MaxRounds = DefaultMaxRounds(q.N)
	}
	key.Replicates = q.Replicates
	if key.Replicates == 0 {
		key.Replicates = b.defaultReplicates
	}

	// Overrides are recorded in the key only when they differ from the
	// preset, so "explicitly the default" and "defaulted" canonicalize
	// to the same cell.
	_, presetSources := sc.resolved()
	if q.Sources < 0 || q.Sources >= q.N {
		if q.Sources != 0 {
			return CellKey{}, invalidf("sources: %d, want in [1, n)", q.Sources)
		}
	}
	if q.Sources > 0 && q.Sources != presetSources {
		key.Sources = q.Sources
	}
	if q.NoiseEps != 0 {
		if math.IsNaN(q.NoiseEps) || q.NoiseEps < 0 || q.NoiseEps >= 0.5 {
			return CellKey{}, invalidf("noise_eps: %v, want in (0, 1/2)", q.NoiseEps)
		}
		if q.NoiseEps != sc.NoiseEps {
			key.NoiseEps = q.NoiseEps
		}
	}
	if q.FlipFrac != 0 {
		if math.IsNaN(q.FlipFrac) || q.FlipFrac < 0 || q.FlipFrac >= 1 {
			return CellKey{}, invalidf("flip_frac: %v, want in (0, 1)", q.FlipFrac)
		}
		if q.FlipFrac != sc.FlipFrac {
			key.FlipFrac = q.FlipFrac
		}
	}

	eff := applyOverrides(sc, key)

	// Topology: a scenario pin wins; otherwise the query's spec is
	// parsed and canonicalized (so "ring" and "ring:2" are one cell).
	switch {
	case sc.Topology != nil:
		pinned := TopologyName(sc.Topology)
		if q.Topology != "" && q.Topology != pinned {
			return CellKey{}, invalidf("topology: scenario %q pins topology %q", name, pinned)
		}
		key.Topology = pinned
	case q.Topology == "":
		key.Topology = "complete"
	default:
		t, err := ParseTopology(q.Topology)
		if err != nil {
			return CellKey{}, invalidf("topology: %v", strings.TrimPrefix(err.Error(), ErrInvalidOptions.Error()+": "))
		}
		key.Topology = TopologyName(t)
	}
	cellTopo, err := ParseTopology(key.Topology)
	if err != nil {
		return CellKey{}, invalidf("topology: %v", err)
	}

	// Engine: custom-runner scenarios schedule themselves; everything
	// else resolves or validates an engine against the topology.
	if eff.Run != nil {
		label := eff.EngineLabel
		if label == "" {
			label = eff.Name
		}
		if q.Engine != "" && q.Engine != label {
			return CellKey{}, invalidf("engine: scenario %q schedules itself (engine label %q); omit the engine or name the label", name, label)
		}
		if key.NoiseEps != 0 || key.FlipFrac != 0 {
			return CellKey{}, invalidf("noise_eps: scenario %q has a custom runner; per-query noise/flip overrides are not supported", name)
		}
		if !topo.IsComplete(cellTopo) {
			return CellKey{}, invalidf("topology: scenario %q has a custom scheduler and runs under uniform mixing only", name)
		}
		key.Engine = label
	} else {
		var engine EngineKind
		if q.Engine == "" {
			if eff.chainCompatible() && topo.IsComplete(cellTopo) {
				engine = EngineMarkovChain
			} else {
				engine = EngineAgentFast
			}
		} else {
			engine, err = parseEngineName(q.Engine)
			if err != nil {
				return CellKey{}, invalidf("engine: %v", err)
			}
		}
		if err := checkEngineTopology(engine, eff, cellTopo); err != nil {
			return CellKey{}, err
		}
		key.Engine = EngineName(engine)
	}
	if err := key.Validate(); err != nil {
		return CellKey{}, invalidf("%v", err)
	}
	return key, nil
}

// applyOverrides folds a key's recorded overrides back into the
// scenario preset, producing the effective scenario the cell runs.
func applyOverrides(sc Scenario, key CellKey) Scenario {
	if key.Sources != 0 {
		sc.Sources = key.Sources
	}
	if key.NoiseEps != 0 {
		sc.NoiseEps = key.NoiseEps
	}
	if key.FlipFrac != 0 {
		sc.FlipFrac = key.FlipFrac
	}
	return sc
}

// checkEngineTopology mirrors the sweep-layer compatibility rules so a
// bad combination is a 400 at resolve time, not a failure mid-run.
func checkEngineTopology(engine EngineKind, sc Scenario, t Topology) error {
	complete := topo.IsComplete(t)
	switch engine {
	case EngineMarkovChain:
		if !sc.chainCompatible() {
			return invalidf("engine: scenario %q is not expressible on the Markov-chain engine", sc.Name)
		}
		if !complete {
			return invalidf("engine: markov-chain is exact only under uniform mixing, not topology %q", topo.DisplayName(t))
		}
	case EngineAggregate:
		if !complete {
			return invalidf("engine: aggregate is exact only under uniform mixing, not topology %q", topo.DisplayName(t))
		}
	case EngineAggregateSparse:
		if complete {
			return invalidf("engine: aggregate-sparse requires a degree-annealed sparse topology, not %q", topo.DisplayName(t))
		}
		if _, annealed := topo.AnnealedDegree(t); !annealed {
			return invalidf("engine: aggregate-sparse models degree-annealed topologies only, not %q", topo.DisplayName(t))
		}
	}
	return nil
}

// fromKey rebuilds a resolved cell from its key. Keys produced by
// Resolve always round-trip; keys from other sources get the same
// validation.
func (b *serveBackend) fromKey(key CellKey) (resolvedCell, error) {
	cell := resolvedCell{key: key}
	sc, ok := ScenarioByName(key.Scenario)
	if !ok {
		return cell, serve.Errorf(serve.CodeNotFound, "scenario: %q is not registered", key.Scenario)
	}
	cell.scenario = applyOverrides(sc, key)
	t, err := ParseTopology(key.Topology)
	if err != nil {
		return cell, asToolError(err)
	}
	cell.topology = t
	if cell.scenario.Run == nil {
		cell.engine, err = parseEngineName(key.Engine)
		if err != nil {
			return cell, invalidf("engine: %v", err)
		}
	}
	return cell, nil
}

// Tier classifies a key by its engine: the chain and occupancy engines
// answer a cell inline; agent engines and custom runners go to the
// bounded fallback pool.
func (b *serveBackend) Tier(key CellKey) serve.Tier {
	switch key.Engine {
	case "markov-chain", "aggregate", "aggregate-sparse":
		return serve.TierExact
	}
	return serve.TierFallback
}

// cellAnswer is the canonical response body of fet.study.run /
// fet.study.get: the resolved identity (key, hash, every cell
// parameter) plus the convergence aggregate. Field order and types are
// the wire contract — the marshaled bytes are cached and replayed
// verbatim, and golden tests pin them.
type cellAnswer struct {
	Key        string  `json:"key"`
	Hash       string  `json:"hash"`
	Scenario   string  `json:"scenario"`
	Engine     string  `json:"engine"`
	Topology   string  `json:"topology"`
	N          int     `json:"n"`
	Ell        int     `json:"ell"`
	Replicates int     `json:"replicates"`
	MaxRounds  int     `json:"max_rounds"`
	Seed       uint64  `json:"seed"`
	Sources    int     `json:"sources,omitempty"`
	NoiseEps   float64 `json:"noise_eps,omitempty"`
	FlipFrac   float64 `json:"flip_frac,omitempty"`
	Converged  int     `json:"converged"`
	// SuccessRate is the convergence probability estimate.
	SuccessRate float64 `json:"success_rate"`
	// Rounds summarizes the replicate convergence times (non-converged
	// replicates censored at their executed round count).
	Rounds answerRounds `json:"rounds"`
}

// answerRounds is the convergence-time summary in stable wire form.
type answerRounds struct {
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	StdErr float64 `json:"stderr"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Median float64 `json:"median"`
	Q25    float64 `json:"q25"`
	Q75    float64 `json:"q75"`
	P05    float64 `json:"p05"`
	P95    float64 `json:"p95"`
}

// Run executes the key's cell and returns the canonical answer body.
// Everything derives from the key alone — replicate i runs with
// StreamSeed(key.Seed, i) and results aggregate in replicate order —
// so the bytes are identical across calls, processes and worker
// counts, which is what makes caching them sound.
func (b *serveBackend) Run(ctx context.Context, key CellKey, progress func(done, total int)) ([]byte, error) {
	cell, err := b.fromKey(key)
	if err != nil {
		return nil, err
	}
	total := key.Replicates
	study, err := newCellStudy(cell.scenario, cell.engine, cell.topology, key.N, key.Ell, key.MaxRounds, 1, key.Seed, total, 0, b.batch)
	if err != nil {
		return nil, asToolError(err)
	}
	results := make([]RunResult, total)
	done := 0
	for rr := range study.Stream(ctx) {
		results[rr.Replicate] = rr
		done++
		if progress != nil {
			progress(done, total)
		}
	}
	if done < total {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("study lost %d of %d replicates", total-done, total)
	}
	for i := range results {
		if err := results[i].Err; err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
			return nil, asToolError(fmt.Errorf("replicate %d: %w", i, err))
		}
	}
	times, converged := censorConvergence(results)
	conv := stats.SummarizeConvergence(times, converged)
	canonical := key.Canonical()
	ans := cellAnswer{
		Key:         canonical,
		Hash:        serve.HashPrefix + serve.HashHex(canonical),
		Scenario:    key.Scenario,
		Engine:      key.Engine,
		Topology:    key.Topology,
		N:           key.N,
		Ell:         key.Ell,
		Replicates:  key.Replicates,
		MaxRounds:   key.MaxRounds,
		Seed:        key.Seed,
		Sources:     key.Sources,
		NoiseEps:    key.NoiseEps,
		FlipFrac:    key.FlipFrac,
		Converged:   conv.Converged,
		SuccessRate: conv.SuccessRate,
		Rounds: answerRounds{
			Mean:   conv.Rounds.Mean,
			Std:    conv.Rounds.Std,
			StdErr: conv.Rounds.StdErr,
			Min:    conv.Rounds.Min,
			Max:    conv.Rounds.Max,
			Median: conv.Rounds.Median,
			Q25:    conv.Rounds.Q25,
			Q75:    conv.Rounds.Q75,
			P05:    conv.Rounds.P05,
			P95:    conv.Rounds.P95,
		},
	}
	return json.Marshal(ans)
}

// Inspect expands a sweep grid into planned cells and their keys.
func (b *serveBackend) Inspect(q serve.SweepQuery) (*serve.Inspection, error) {
	spec := SweepSpec{
		Ns:         q.Ns,
		Ells:       q.Ells,
		Replicates: q.Replicates,
		MaxRounds:  q.MaxRounds,
		Seed:       q.Seed,
	}
	if spec.Replicates == 0 {
		spec.Replicates = b.defaultReplicates
	}
	for _, name := range q.Scenarios {
		sc, ok := ScenarioByName(name)
		if !ok {
			return nil, serve.Errorf(serve.CodeNotFound,
				"scenarios: %q is not registered; see %s", name, serve.ToolScenariosList)
		}
		spec.Scenarios = append(spec.Scenarios, sc)
	}
	for _, name := range q.Engines {
		engine, err := parseEngineName(name)
		if err != nil {
			return nil, invalidf("engines: %v", err)
		}
		spec.Engines = append(spec.Engines, engine)
	}
	for _, ts := range q.Topologies {
		t, err := ParseTopology(ts)
		if err != nil {
			return nil, invalidf("topologies: %v", strings.TrimPrefix(err.Error(), ErrInvalidOptions.Error()+": "))
		}
		spec.Topologies = append(spec.Topologies, t)
	}
	sweep, err := NewSweep(spec)
	if err != nil {
		return nil, asToolError(err)
	}
	keys := sweep.CellKeys()
	insp := &serve.Inspection{
		Cells:      len(keys),
		Replicates: sweep.Replicates(),
		Rows:       make([]serve.InspectedCell, len(keys)),
	}
	for i, key := range keys {
		if err := key.Validate(); err != nil {
			return nil, invalidf("scenarios: cell %d: %v", i, err)
		}
		canonical := key.Canonical()
		insp.Rows[i] = serve.InspectedCell{
			Index:    i,
			Scenario: key.Scenario,
			Engine:   key.Engine,
			Topology: key.Topology,
			N:        key.N,
			Ell:      key.Ell,
			Seed:     key.Seed,
			Key:      canonical,
			Hash:     serve.HashPrefix + serve.HashHex(canonical),
		}
	}
	return insp, nil
}

// Listings enumerates the query vocabulary, each axis sorted.
func (b *serveBackend) Listings() serve.Listings {
	var ls serve.Listings
	for _, sc := range Scenarios() {
		info := serve.ScenarioInfo{Name: sc.Name, Description: sc.Description, Engine: sc.EngineLabel}
		if sc.Topology != nil {
			info.Topology = TopologyName(sc.Topology)
		}
		ls.Scenarios = append(ls.Scenarios, info)
	}
	ls.Engines = []string{"agent-exact", "agent-fast", "agent-parallel", "aggregate", "aggregate-sparse", "markov-chain"}
	for _, spec := range TopologySpecs() {
		ls.Topologies = append(ls.Topologies, serve.TopologyInfo{Spec: spec.Spec, Description: spec.Description})
	}
	return ls
}
