package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	ps "passivespread"
)

// spanRec is one recorded span. Times are nanoseconds since the trace's
// epoch; Parent 0 marks a root span. Every span of one invocation shares
// Run.
type spanRec struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent"`
	Run    string            `json:"run"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []spanRec
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

// add records a span and returns its id.
func (t *tracer) add(parent int64, name string, start, end time.Time, attrs map[string]string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, spanRec{
		ID: id, Parent: parent, Run: t.run, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Attrs: attrs,
	})
	return id
}

// reserve allocates an id for a span whose end is not known yet; close
// fills it in.
func (t *tracer) reserve(parent int64, name string, start time.Time) int64 {
	return t.add(parent, name, start, start, nil)
}

func (t *tracer) close(id int64, end time.Time, attrs map[string]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = end.Sub(t.epoch).Nanoseconds()
	s.Attrs = attrs
}

// write stores the provenance header and every span as JSON lines.
func (t *tracer) write(path string, prov map[string]interface{}) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]interface{}{"provenance": prov}); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// repTrace is what one replicate's observer saw: when Observe(i) was
// called and the time of every RoundEvent.
type repTrace struct {
	observed time.Time
	events   []time.Time
}

// studyTrace collects per-replicate timestamps through StudySpec.Observe.
type studyTrace struct {
	mu   sync.Mutex
	reps []*repTrace
}

func newStudyTrace(replicates int) *studyTrace {
	return &studyTrace{reps: make([]*repTrace, replicates)}
}

// observe is a StudySpec.Observe hook: it timestamps the call and every
// round event of replicate i.
func (st *studyTrace) observe(i int) []ps.Observer {
	rt := &repTrace{observed: time.Now()}
	st.mu.Lock()
	st.reps[i] = rt
	st.mu.Unlock()
	return []ps.Observer{ps.ObserverFunc(func(ps.RoundEvent) error {
		rt.events = append(rt.events, time.Now())
		return nil
	})}
}

// repStats is one replicate's layer breakdown.
type repStats struct {
	start, end time.Time
	populate   time.Duration // start → first event, minus one round
	round      time.Duration // median round
	rounds     int
	width      int // replicates sharing each round (lockstep lanes)
	n          int // population size
}

// residual is the share of the replicate span that populate plus
// rounds × median round does not explain.
func (s repStats) residual() float64 {
	span := s.end.Sub(s.start)
	if span <= 0 {
		return 0
	}
	return 1 - float64(s.populate+time.Duration(s.rounds)*s.round)/float64(span)
}

// breakdown turns the timestamps into per-replicate layer stats and, when
// a tracer is given, replicate and round spans under parent. Replicates
// are scheduled in batches of width batch, and Observe(i) is called for
// a whole batch before any lane runs. If a batch's second lane sees its
// first event before the first lane's last one, the batch ran in
// lockstep: every lane starts at its Observe call and shares each round
// with the batch's other lanes. Otherwise the lanes ran one after
// another (the executor's per-lane fallback) and each starts where the
// previous one ended.
func (st *studyTrace) breakdown(tr *tracer, parent int64, batch, n int) []repStats {
	if batch < 1 {
		batch = 1
	}
	var out []repStats
	for lo := 0; lo < len(st.reps); lo += batch {
		hi := min(lo+batch, len(st.reps))
		group := st.reps[lo:hi]
		for _, rt := range group {
			if rt == nil || len(rt.events) == 0 {
				return out // an unfinished replicate: the run failed
			}
		}
		lockstep := len(group) > 1 && group[1].events[0].Before(group[0].events[len(group[0].events)-1])
		width := 1
		if lockstep {
			width = len(group)
		}
		for l, rt := range group {
			start := rt.observed
			if !lockstep && l > 0 {
				start = group[l-1].events[len(group[l-1].events)-1]
			}
			durs := make([]float64, 0, len(rt.events))
			for k := 1; k < len(rt.events); k++ {
				durs = append(durs, float64(rt.events[k].Sub(rt.events[k-1])))
			}
			round := time.Duration(median(durs))
			s := repStats{
				start:    start,
				end:      rt.events[len(rt.events)-1],
				populate: rt.events[0].Sub(start) - round,
				round:    round,
				rounds:   len(rt.events),
				width:    width,
				n:        n,
			}
			out = append(out, s)
			if tr != nil {
				id := tr.add(parent, "replicate", start, s.end, nil)
				from := start
				for _, ev := range rt.events {
					tr.add(id, "round", from, ev, nil)
					from = ev
				}
			}
		}
	}
	return out
}

// setSimMetrics records the executor-layer metrics of agent-engine
// replicates at population n: populate, round, per-agent round cost,
// rounds, the residual the layer ladder leaves, and the RNG draws the
// rounds imply (FET fixes two draws per agent per round).
func setSimMetrics(r *run, stats []repStats) {
	var pop, round, perAgent, rounds, resid, draws []float64
	for _, s := range stats {
		pop = append(pop, float64(s.populate.Nanoseconds())/1e3)
		round = append(round, float64(s.round.Nanoseconds())/1e3)
		perAgent = append(perAgent, float64(s.round.Nanoseconds())/float64(s.n*s.width))
		rounds = append(rounds, float64(s.rounds))
		resid = append(resid, s.residual())
		draws = append(draws, float64(2*s.n*s.rounds))
	}
	r.set("sim.populate_us.p50", median(pop))
	r.set("sim.round_us.p50", median(round))
	r.set("sim.agent_round_ns", median(perAgent))
	r.set("sim.rounds_per_replicate", median(rounds))
	r.set("sim.residual_share", sum(resid)/float64(max(len(resid), 1)))
	r.set("rng.draws_per_replicate", median(draws))
}
