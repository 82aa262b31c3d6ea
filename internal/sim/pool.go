package sim

import (
	"context"
	"fmt"
	"sync"

	"passivespread/internal/topo"
)

// Shape is a configuration's executor reuse class: two configs of equal
// Shape can share an executor via populate. Everything else a replicate
// varies — seed, correct opinion, initializer, noise, corruption hooks,
// round caps, observers — is (re)applied per lease by populate and the
// orchestrator.
type Shape struct {
	engine             EngineKind
	n, sources, shards int
	protocol           string
	topology           string
}

// ShapeOf returns the defaulted cfg's Shape. An invalid cfg has the zero
// Shape, which no pooled executor has.
func ShapeOf(cfg Config) Shape {
	c, err := cfg.withDefaults()
	if err != nil {
		return Shape{}
	}
	return shapeOf(&c)
}

func shapeOf(c *Config) Shape {
	shards := 1
	if c.Engine == EngineAgentParallel {
		shards = resolvedWorkers(c)
	}
	return Shape{c.Engine, c.N, c.Sources, shards, c.Protocol.Name(), topo.DisplayName(c.Topology)}
}

// poolKey is a pooled executor's key: its Shape plus, for lockstep
// executors, the batch width (0 for sequential executors). Lockstep
// buffers are sized n·lanes, so batches of different widths are
// different keys.
type poolKey struct {
	Shape
	lanes int
}

// Pool reuses agent executors — and with them every O(n) replicate
// buffer: the packed opinion bitsets, the initializer scratch, the
// per-agent RNG states, resettable agent objects, the observation
// graph's adjacency and its per-worker View row buffers, and the
// parallel engine's persistent shard workers — across replicates that
// share a shape. Batch runners (Study, and Sweep through its per-cell
// Studies) lease an executor per replicate instead of rebuilding one,
// which removes the per-replicate allocation storm at large n while
// keeping results bit-identical: populate replays exactly the RNG
// consumption of a fresh construction.
//
// A Pool is safe for concurrent use. Call Release when a batch
// finishes: it drops the idle executors and stops their persistent
// workers (leaked otherwise for EngineAgentParallel). The Pool remains
// usable after Release.
type Pool struct {
	mu       sync.Mutex
	free     map[poolKey][]*agentExecutor
	freeLock map[poolKey][]*lockstepExecutor
}

// NewPool returns an empty executor pool.
func NewPool() *Pool {
	return &Pool{
		free:     make(map[poolKey][]*agentExecutor),
		freeLock: make(map[poolKey][]*lockstepExecutor),
	}
}

// RunContext is RunContext with executor reuse: it leases a pooled
// executor matching cfg's shape (building one on a miss), runs the
// replicate, and returns the executor to the pool. Results are
// bit-identical to the unpooled path. A nil *Pool degrades to plain
// RunContext. Engines without per-agent state (EngineAggregate,
// EngineAggregateSparse) run unpooled — their setup is O(ℓ), not O(n).
func (p *Pool) RunContext(ctx context.Context, cfg Config) (Result, error) {
	if p == nil {
		return RunContext(ctx, cfg)
	}
	c, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if c.Engine == EngineAggregate || c.Engine == EngineAggregateSparse {
		exec, err := newAggregateExecutor(&c)
		if err != nil {
			return Result{}, err
		}
		defer exec.close()
		return runLoop(ctx, &c, exec)
	}

	key := poolKey{Shape: shapeOf(&c)}

	e := p.get(key)
	if e == nil {
		e, err = newAgentExecutor(&c)
	} else {
		err = e.populate(&c)
	}
	if err != nil {
		if e != nil {
			e.close()
		}
		return Result{}, err
	}
	res, runErr := runLoop(ctx, &c, e)
	e.cfg = nil // do not retain the lease's Config across idle periods
	p.put(key, e)
	return res, runErr
}

// RunLockstep runs len(lanes) replicates of cfg's shape — lane l seeded
// with lanes[l].Seed and observed by lanes[l].Observers — writing each
// lane's outcome to out[l]. Outcomes are bit-identical to running every
// lane alone through RunContext: when the configuration supports the
// lockstep executor (see LockstepRefusal) the whole batch advances
// through one round loop on a pooled lockstep executor; otherwise, and for
// single-lane batches, each lane falls back to the sequential path.
// cfg.Seed and cfg.Observers are ignored — both are per-lane.
//
// A non-nil return means the batch itself was rejected (bad
// configuration, mismatched slice lengths, too many lanes) and no lane
// ran. Per-lane failures — context cancellation, observer errors — are
// reported in out[l].Err, and lanes already finished keep their
// results. A nil *Pool degrades to unpooled sequential runs.
func (p *Pool) RunLockstep(ctx context.Context, cfg Config, lanes []LaneRun, out []LaneResult) error {
	if len(out) != len(lanes) {
		return fmt.Errorf("sim: RunLockstep with %d lanes but %d result slots", len(lanes), len(out))
	}
	if len(lanes) > maxLockstepLanes {
		return fmt.Errorf("sim: RunLockstep with %d lanes, max %d", len(lanes), maxLockstepLanes)
	}
	if len(lanes) == 0 {
		return nil
	}
	cfg.Observers = nil
	c, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	if p == nil || len(lanes) == 1 || lockstepRefusal(&c) != Accepted {
		for l := range lanes {
			lc := cfg
			lc.Seed = lanes[l].Seed
			lc.Observers = lanes[l].Observers
			var res Result
			var runErr error
			if p == nil {
				res, runErr = RunContext(ctx, lc)
			} else {
				res, runErr = p.RunContext(ctx, lc)
			}
			out[l] = LaneResult{Result: res, Err: runErr}
		}
		return nil
	}

	key := poolKey{Shape: shapeOf(&c), lanes: len(lanes)}
	e := p.getLock(key)
	if e == nil {
		e = newLockstepExecutor(&c, len(lanes))
	}
	if err := e.populate(&c, lanes); err != nil {
		return err
	}
	runLockstepLoop(ctx, &c, e, lanes, out)
	e.cfg = nil // do not retain the lease's Config across idle periods
	p.putLock(key, e)
	return nil
}

func (p *Pool) get(key poolKey) *agentExecutor {
	p.mu.Lock()
	defer p.mu.Unlock()
	frees := p.free[key]
	if len(frees) == 0 {
		return nil
	}
	e := frees[len(frees)-1]
	p.free[key] = frees[:len(frees)-1]
	return e
}

func (p *Pool) put(key poolKey, e *agentExecutor) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free[key] = append(p.free[key], e)
}

func (p *Pool) getLock(key poolKey) *lockstepExecutor {
	p.mu.Lock()
	defer p.mu.Unlock()
	frees := p.freeLock[key]
	if len(frees) == 0 {
		return nil
	}
	e := frees[len(frees)-1]
	p.freeLock[key] = frees[:len(frees)-1]
	return e
}

func (p *Pool) putLock(key poolKey, e *lockstepExecutor) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.freeLock[key] = append(p.freeLock[key], e)
}

// Release closes and drops every idle executor. Executors leased at call
// time are unaffected — they return to the pool when their replicate
// finishes and are freed by the next Release.
func (p *Pool) Release() { p.release(func(poolKey) bool { return true }) }

// ReleaseShape is Release restricted to the executors of shape s,
// sequential and lockstep of every width: a batch runner calls it once
// no remaining work has that shape.
func (p *Pool) ReleaseShape(s Shape) { p.release(func(k poolKey) bool { return k.Shape == s }) }

func (p *Pool) release(match func(poolKey) bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	//fet:allow detrand: shutdown drain; executors are independent, close order is unobservable
	for key, frees := range p.free {
		if !match(key) {
			continue
		}
		for _, e := range frees {
			e.close()
		}
		delete(p.free, key)
	}
	//fet:allow detrand: shutdown drain; dropping references has no observable order
	for key := range p.freeLock {
		// Lockstep executors own no background resources — dropping the
		// references releases their buffers.
		if match(key) {
			delete(p.freeLock, key)
		}
	}
}
