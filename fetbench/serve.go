package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	ps "passivespread"
)

// serve-mix: an open loop over loopback HTTP against an in-process
// fetserve. Its catalogue is the cells of recorded sweeps, which users
// re-query by cell key; one Zipf law ranks them. The top-ranked sweep is
// the hot set, pre-warmed during set-up, and the rest of the catalogue
// is the cold tail that fills the cache. Each set-up is followed either
// by one loop of a low and a high phase at fixed rates, or by a replay
// of the same requests at full speed.

const (
	serveLowRate  = 200 // requests per second in a low phase
	serveHighRate = 500 // requests per second in a high phase
	serveLoops    = 5   // set-ups, each followed by one low+high loop
	serveReplays  = 5   // set-ups, each followed by a replay at full speed
	serveSweeps   = 10  // recorded sweeps in the catalogue
	serveZipfS    = 1.3 // Zipf exponent of catalogue popularity
	serveLimit    = 100 * time.Millisecond
	serveBatch    = 8
	serveResumes  = 15
	// servePattern seeds the stream that draws the request pattern; it
	// is fixed, so every seed requests the same mix of cell kinds.
	servePattern = 0x5e7e
	// serveMaxLagP99 is the generator lateness (ms, p99) beyond which a
	// run is marked invalid: twice the Go scheduler's 10 ms preemption
	// slice, which bounds how late a sleeping generator wakes on a busy
	// host.
	serveMaxLagP99 = 20.0
)

// query is a fet.study.run request body. Replicates are left to the
// server's default (40).
type query struct {
	Scenario string `json:"scenario"`
	Engine   string `json:"engine"`
	Topology string `json:"topology,omitempty"`
	N        int    `json:"n"`
	Seed     uint64 `json:"seed"`
}

// serveInputs is the generated catalogue and request schedule.
type serveInputs struct {
	hot  []query // the top-ranked sweep, pre-warmed in set-up
	reqs []request
}

// request is one scheduled request: its catalogue entry, its phase, and
// when it is due (offset from the loop's start).
type request struct {
	q     query
	due   time.Duration
	phase string // "low" or "high"
}

// sweepCells is one recorded sweep's cells: the quick-scale E01 grid
// CI's sweep fleet runs (Ns 256, 1024, 4096 × worst-case, half-split,
// uniform) on the agent-fast engine (fallback tier) and the aggregate
// and Markov-chain engines (exact tier; the chain has no uniform
// start), plus E23's converging sparse column, worst-case on
// random-regular:64, on the aggregate-sparse engine (exact tier). Cell
// seeds follow the sweep's cell-seed contract.
func sweepCells(seed uint64) []query {
	var out []query
	add := func(q query) {
		q.Seed = ps.StreamSeed(seed, uint64(len(out)))
		out = append(out, q)
	}
	for _, n := range []int{256, 1024, 4096} {
		for _, sc := range []string{"worst-case", "half-split", "uniform"} {
			for _, eng := range []string{"agent-fast", "aggregate", "markov-chain"} {
				if eng == "markov-chain" && sc == "uniform" {
					continue
				}
				add(query{Scenario: sc, Engine: eng, N: n})
			}
		}
		add(query{Scenario: "worst-case", Engine: "aggregate-sparse", Topology: "random-regular:64", N: n})
	}
	return out
}

// serveGenerate makes the catalogue and schedule. The seed chooses the
// recorded sweeps' seeds, and so every cell; the pattern of catalogue
// ranks requested is drawn from the fixed servePattern stream. The
// catalogue ranks the seed's first sweep on top (the hot set) and the
// cells of the other sweeps below it in shuffled order.
func serveGenerate(seed uint64, seconds time.Duration) *serveInputs {
	pat := rand.New(rand.NewPCG(servePattern, 0))
	in := &serveInputs{hot: sweepCells(ps.StreamSeed(seed, 0))}
	var tail []query
	for k := 1; k < serveSweeps; k++ {
		tail = append(tail, sweepCells(ps.StreamSeed(seed, uint64(k)))...)
	}
	pat.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	catalogue := append(append([]query(nil), in.hot...), tail...)
	zipf := rand.NewZipf(pat, serveZipfS, 1, uint64(len(catalogue)-1))
	window := seconds.Seconds() / float64(2*serveLoops)
	for i, ph := range []struct {
		name string
		rate float64
	}{{"low", serveLowRate}, {"high", serveHighRate}} {
		for j := 0; j < int(ph.rate*window); j++ {
			due := time.Duration((float64(i)*window + float64(j)/ph.rate) * 1e9)
			in.reqs = append(in.reqs, request{q: catalogue[zipf.Uint64()], due: due, phase: ph.name})
		}
	}
	return in
}

// daemon is an in-process fetserve on a loopback listener.
type daemon struct {
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

// startDaemon serves a new fetserve (Batch 8, Workers = nproc) backed
// by the disk cache in dir.
func startDaemon(r *run, dir string) (*daemon, error) {
	srv, err := ps.NewServer(ps.ServeConfig{Workers: r.workers, Batch: serveBatch, CacheDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     r.workers,
				MaxIdleConnsPerHost: r.workers,
			},
		},
	}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// stop shuts the server down and waits for it to exit.
func (d *daemon) stop() {
	d.hs.Close()
	<-d.done
	d.client.CloseIdleConnections()
}

// answer is one HTTP exchange's outcome.
type answer struct {
	status int
	tier   string
	body   []byte
	err    error
}

func (d *daemon) post(tool string, body []byte) answer {
	resp, err := d.client.Post(d.url+"/v1/tools/"+tool, "application/json", bytes.NewReader(body))
	if err != nil {
		return answer{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return answer{status: resp.StatusCode, tier: resp.Header.Get("X-Fetserve-Tier"), body: b, err: err}
}

// bodies remembers each key's first 200 body; every later 200 body for
// the key must be byte-identical.
type bodies struct {
	mu    sync.Mutex
	first map[string][]byte
}

func (b *bodies) same(key string, body []byte) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if prev, ok := b.first[key]; ok {
		return bytes.Equal(prev, body)
	}
	b.first[key] = body
	return true
}

// serveSetup generates the inputs, starts a daemon over a fresh cache
// directory and pre-warms the hot set.
func serveSetup(r *run, i int, want *bodies) (*serveInputs, *daemon, string, float64, error) {
	t0 := time.Now()
	in := serveGenerate(r.seed, r.seconds)
	dir := filepath.Join(r.work, fmt.Sprintf("serve-cache-%d", i))
	d, err := startDaemon(r, dir)
	if err != nil {
		return nil, nil, "", 0, err
	}
	for _, q := range in.hot {
		body, err := json.Marshal(q)
		if err != nil {
			return nil, nil, "", 0, err
		}
		a := d.post("fet.study.run", body)
		if a.err != nil || a.status != http.StatusOK {
			d.stop()
			return nil, nil, "", 0, fmt.Errorf("pre-warming %s: status %d: %v %s", body, a.status, a.err, a.body)
		}
		r.check(want.same(string(body), a.body), "pre-warm %s: body differs from an earlier set-up's", body)
	}
	return in, d, dir, time.Since(t0).Seconds(), nil
}

// exchange is one scheduled request as the generator saw it. Offsets
// are from the loop's start: sent when the generator queued it, taken
// when a connection took it up, end when its answer was read.
type exchange struct {
	request
	key              string
	sent, taken, end time.Duration
	answer
}

// openLoop sends the schedule at its fixed rates over at most nproc
// connections. The generator never waits for a connection, so latency
// can run from when it queued a request (sent): a stall still shows as
// queueing in every request behind it, and the generator's own lateness
// (sent − due), which Go's millisecond timer wake-ups and host
// contention set, is reported on its own.
func openLoop(r *run, in *serveInputs, d *daemon) loop {
	out := make([]exchange, len(in.reqs))
	for i, rq := range in.reqs {
		b, _ := json.Marshal(rq.q) // plain struct; cannot fail
		out[i].request, out[i].key = rq, string(b)
	}
	// One slot per scheduled request: the generator never blocks on a
	// busy connection, so a stall queues requests instead of delaying
	// the schedule.
	queue := make(chan int, len(in.reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i].taken = time.Since(start)
				out[i].answer = d.post("fet.study.run", []byte(out[i].key))
				out[i].end = time.Since(start)
			}
		}()
	}
	for i := range out {
		if wait := out[i].due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		out[i].sent = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return loop{ex: out, start: start, makespan: time.Since(start)}
}

// judge counts every exchange as one attempt; a transport error, a
// non-200 answer or a body that differs from the key's first body is a
// failure. A 5xx or a differing body also fails the run's correctness.
func judge(r *run, ex []exchange, want *bodies) {
	bad := 0
	for _, e := range ex {
		switch {
		case e.err != nil || e.status != http.StatusOK:
			bad++
			if e.status >= 500 {
				r.mismatch("request %s: status %d", e.key, e.status)
			}
		case !want.same(e.key, e.body):
			bad++
			r.mismatch("request %s: body differs from the key's first answer", e.key)
		}
	}
	r.attempt(len(ex), bad)
}

// inPhase returns the exchanges of one phase.
func inPhase(ex []exchange, phase string) []exchange {
	var out []exchange
	for _, e := range ex {
		if e.phase == phase {
			out = append(out, e)
		}
	}
	return out
}

// latencies returns the sent-to-answer latencies in ms, a failure
// counting as a miss beyond serveLimit.
func latencies(ex []exchange) []float64 {
	out := make([]float64, 0, len(ex))
	for _, e := range ex {
		l := ms(e.end - e.sent)
		if e.err != nil || e.status != http.StatusOK {
			l = max(l, 10*ms(serveLimit))
		}
		out = append(out, l)
	}
	return out
}

// goodput is the high phase's 200 answers within serveLimit per second
// from its first due request to its last answer. Below saturation the
// schedule sets it; it drops when the server falls behind.
func goodput(ex []exchange) float64 {
	high := inPhase(ex, "high")
	good := 0
	var last time.Duration
	for _, e := range high {
		if e.err == nil && e.status == http.StatusOK && e.end-e.sent <= serveLimit {
			good++
		}
		last = max(last, e.end)
	}
	return float64(good) / (last - high[0].due).Seconds()
}

// replay sends the whole schedule at once, so nproc connections answer
// it as fast as the server allows: its makespan follows server speed.
func replay(r *run, in *serveInputs, d *daemon) loop {
	burst := *in
	burst.reqs = make([]request, len(in.reqs))
	for i, rq := range in.reqs {
		rq.due = 0
		burst.reqs[i] = rq
	}
	return openLoop(r, &burst, d)
}

// resumeDaemon boots a new daemon over dir, which loads and verifies
// every cached answer, and times it until its first health answer. With
// verify it then reads back, untimed, every answered key from the cache
// only (fet.study.get); each must be a 200 with the key's first body.
func resumeDaemon(r *run, dir string, want *bodies, verify bool) (float64, error) {
	t0 := time.Now()
	d, err := startDaemon(r, dir)
	if err != nil {
		return 0, err
	}
	defer d.stop()
	resp, err := d.client.Get(d.url + "/v1/tools/fet.health")
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	boot := time.Since(t0).Seconds()
	r.check(resp.StatusCode == http.StatusOK, "resume: health status %d", resp.StatusCode)
	if !verify {
		return boot, nil
	}
	want.mu.Lock()
	keys := make([]string, 0, len(want.first))
	for k := range want.first {
		keys = append(keys, k)
	}
	want.mu.Unlock()
	for _, k := range keys {
		a := d.post("fet.study.get", []byte(k))
		r.check(a.err == nil && a.status == http.StatusOK && want.same(k, a.body),
			"resume: %s: status %d (%v)", k, a.status, a.err)
	}
	return boot, nil
}

// loop is one open loop or replay. Exchange offsets are from start.
type loop struct {
	ex       []exchange
	start    time.Time
	makespan time.Duration
	cpu      float64 // process user+sys over the loop, in seconds
}

// serveRun is serveReplays set-ups each followed by a replay, then
// serveLoops set-ups each followed by an open loop. The last loop's
// daemon and cache directory are kept.
type serveRun struct {
	d         *daemon
	dir       string
	setup     []float64
	replays   []loop
	loops     []loop
	genLagP99 float64
}

// runServe runs the replays and open loops, checking every answer
// against the first answer for its key.
func runServe(r *run, want *bodies) (*serveRun, error) {
	sr := &serveRun{}
	for i := 0; i < serveReplays; i++ {
		in, d, _, s, err := serveSetup(r, serveLoops+i, want)
		if err != nil {
			return nil, err
		}
		sr.setup = append(sr.setup, s)
		runtime.GC()
		l := replay(r, in, d)
		sr.replays = append(sr.replays, l)
		judge(r, l.ex, want)
		d.stop()
	}
	var lag []float64
	for i := 0; i < serveLoops; i++ {
		in, d, dir, s, err := serveSetup(r, i, want)
		if err != nil {
			return nil, err
		}
		sr.setup = append(sr.setup, s)
		runtime.GC() // start every loop from the same heap state
		m := begin()
		l := openLoop(r, in, d)
		_, l.cpu = m.end()
		sr.loops = append(sr.loops, l)
		judge(r, l.ex, want)
		for _, e := range l.ex {
			lag = append(lag, ms(e.sent-e.due))
		}
		if i < serveLoops-1 {
			d.stop()
		}
		sr.d, sr.dir = d, dir
	}
	sr.genLagP99 = quantile(lag, 0.99)
	r.prov["rates_rps"] = []int{serveLowRate, serveHighRate}
	r.prov["gen_lag_ms_p99"] = sr.genLagP99
	r.prov["valid"] = sr.genLagP99 <= serveMaxLagP99
	return sr, nil
}

// medianOf applies f to every loop and returns the median.
func medianOf(loops []loop, f func(loop) float64) float64 {
	var xs []float64
	for _, l := range loops {
		xs = append(xs, f(l))
	}
	return median(xs)
}

// exchanges returns every loop's exchanges of one phase.
func (sr *serveRun) exchanges(phase string) []exchange {
	var out []exchange
	for _, l := range sr.loops {
		out = append(out, inPhase(l.ex, phase)...)
	}
	return out
}

func serveTimed(r *run) error {
	want := &bodies{first: map[string][]byte{}}
	sr, err := runServe(r, want)
	if err != nil {
		return err
	}
	sr.d.stop()
	r.set("peak_rss_mb", peakRSSMB())
	var resume []float64
	for i := 0; i < serveResumes; i++ {
		runtime.GC()
		s, err := resumeDaemon(r, sr.dir, want, i == 0)
		if err != nil {
			return err
		}
		resume = append(resume, s)
	}
	r.set("setup_s", median(sr.setup))
	r.set("wall_s", medianOf(sr.replays, func(l loop) float64 { return l.makespan.Seconds() }))
	r.set("cpu_s", medianOf(sr.loops, func(l loop) float64 { return l.cpu }))
	r.set("resume_s", median(resume))
	r.set("result.p50_ms", medianOf(sr.loops, func(l loop) float64 { return median(latencies(inPhase(l.ex, "high"))) }))
	r.set("goodput_per_s", medianOf(sr.replays, func(l loop) float64 {
		ok := 0
		for _, e := range l.ex {
			if e.err == nil && e.status == http.StatusOK {
				ok++
			}
		}
		return float64(ok) / l.makespan.Seconds()
	}))
	return nil
}

// serverMedianMs estimates the median fet.study.run handler time from
// the /metrics latency histogram by interpolating within its bucket.
func serverMedianMs(d *daemon) (float64, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	type bucket struct{ le, count float64 }
	var bs []bucket
	sc := bufio.NewScanner(resp.Body)
	const prefix = `fetserve_request_seconds_bucket{tool="fet.study.run",le="`
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := strings.TrimPrefix(line, prefix)
		leStr, countStr, ok := strings.Cut(rest, `"} `)
		if !ok || leStr == "+Inf" {
			continue
		}
		le, err1 := strconv.ParseFloat(leStr, 64)
		c, err2 := strconv.ParseFloat(countStr, 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("parsing /metrics line %q", line)
		}
		bs = append(bs, bucket{le, c})
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if len(bs) == 0 {
		return 0, fmt.Errorf("/metrics has no fet.study.run histogram")
	}
	total := bs[len(bs)-1].count
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.count >= total/2 {
			frac := (total/2 - below) / max(b.count-below, 1)
			return (lo + frac*(b.le-lo)) * 1e3, nil
		}
		lo, below = b.le, b.count
	}
	return lo * 1e3, nil
}

// serveTraced runs the replays and loops once, then records a span per
// loop, phase and request from the loops' exchanges and derives the
// serving-layer metrics. Spans are built after the loops have run, so
// the tracing overhead is the time spent building them, as a share of
// the loops' time.
func serveTraced(r *run) error {
	root := r.tr.reserve(0, "workload", time.Now())
	want := &bodies{first: map[string][]byte{}}
	sr, err := runServe(r, want)
	if err != nil {
		return err
	}
	t0 := time.Now()
	tierMs := map[string][]float64{}
	counts := map[string]int{}
	dup := 0
	var loopsTime time.Duration
	for i, l := range sr.loops {
		loopsTime += l.makespan
		start := l.start
		id := r.tr.add(root, "loop", start, start.Add(l.makespan), map[string]string{"loop": strconv.Itoa(i)})
		cold := map[string]int{}
		for _, phase := range []string{"low", "high"} {
			ex := inPhase(l.ex, phase)
			var end time.Duration
			for _, e := range ex {
				end = max(end, e.end)
			}
			rate := map[string]int{"low": serveLowRate, "high": serveHighRate}[phase]
			pid := r.tr.add(id, "phase", start.Add(ex[0].due), start.Add(end), map[string]string{
				"phase": phase, "rate_rps": strconv.Itoa(rate),
			})
			for _, e := range ex {
				tier := e.tier
				if e.status == http.StatusTooManyRequests {
					tier = "overloaded"
				}
				counts[tier]++
				if e.status == http.StatusOK {
					tierMs[tier] = append(tierMs[tier], ms(e.end-e.taken))
					if tier != "cache" {
						cold[e.key]++
					}
				}
				r.tr.add(pid, "request", start.Add(e.due), start.Add(e.end),
					map[string]string{"tier": tier, "status": strconv.Itoa(e.status)})
			}
		}
		for _, n := range cold {
			if n > 1 {
				dup++
			}
		}
	}
	r.set("trace.overhead_share", time.Since(t0).Seconds()/loopsTime.Seconds())

	serverMs, err := serverMedianMs(sr.d)
	sr.d.stop()
	if err != nil {
		return err
	}
	for _, phase := range []string{"low", "high"} {
		lat := latencies(sr.exchanges(phase))
		r.set("serve."+phase+".p50_ms", quantile(lat, 0.5))
		r.set("serve."+phase+".p99_ms", quantile(lat, 0.99))
	}
	r.set("serve.goodput_rps", medianOf(sr.loops, func(l loop) float64 { return goodput(l.ex) }))
	for _, tier := range []string{"cache", "exact", "fallback"} {
		r.set("serve.tier_ms."+tier+".p50", quantile(tierMs[tier], 0.5))
		r.set("serve.tier_ms."+tier+".p99", quantile(tierMs[tier], 0.99))
		r.set("serve.tier_count."+tier, float64(counts[tier]))
	}
	r.set("serve.tier_count.overloaded", float64(counts["overloaded"]))
	ok := len(tierMs["cache"]) + len(tierMs["exact"]) + len(tierMs["fallback"])
	r.set("serve.cache_hit_ratio", float64(len(tierMs["cache"]))/float64(max(ok, 1)))
	r.set("serve.dup_cold", float64(dup))
	r.set("serve.server_ms.p50", serverMs)
	r.set("serve.gen_lag_ms.p99", sr.genLagP99)

	// The probes hash and checkpoint the canonical keys and bodies of the
	// answers this loop served.
	var keys []string
	var body []byte
	for _, b := range want.first {
		var a struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(b, &a); err != nil || a.Key == "" {
			return fmt.Errorf("answer without a key: %s", b)
		}
		keys, body = append(keys, a.Key), b
	}
	err = probeLayers(r, root, probeParams{n: 4096, ell: ps.SampleSize(4096), keys: keys, body: body})
	r.tr.close(root, time.Now(), map[string]string{"workload": r.workload})
	return err
}
