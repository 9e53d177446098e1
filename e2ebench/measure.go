package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"infosleuth/internal/kqml"
	"infosleuth/internal/telemetry"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line. Extra holds figures printed
// on standard error only: latency and capacity moved by more than a
// quarter between runs on a shared 2-vCPU VM, too much to bound.
type report struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Extra     map[string]float64 `json:"-"`
}

// lateLimit is the load generator's health bar: when the open-loop
// sender's p99 lateness exceeds it the run is invalid, not slow.
const lateLimit = 500 * time.Millisecond

// workload is one benchmark workload: how to build its community, the
// fixed open-loop rate and how much of the seeded operation sequence the
// warm-up uses. spec.json documents the same numbers; a test keeps the
// two equal.
type workload struct {
	name   string
	rate   float64 // open-loop operations per second, ~40% of capacity
	warmup int     // operations run before timing starts
	setups int     // set-ups per run; setup_s is their median
	// traceIDs tags operations with a program trace ID in the traced
	// run. Lookup leaves it off: a traced broker search also emits a
	// provenance event per candidate ad, which at 10k ads per broker
	// costs about a thousand times the untraced search.
	traceIDs bool
	// prepare generates the inputs from the seed (untimed) and returns the
	// set-up that builds a community from them (timed).
	prepare func(seed int64, callers int, t *tracer) (func() (rig, error), error)
}

var workloads = map[string]*workload{
	"lookup": {name: "lookup", rate: 55, warmup: 150, setups: 15,
		prepare: func(seed int64, _ int, t *tracer) (func() (rig, error), error) {
			data := newLookupData(seed)
			ads := data.advertisements()
			return func() (rig, error) { return buildLookup(data, ads, t) }, nil
		}},
	"federated": {name: "federated", rate: 170, warmup: 200, setups: 15, traceIDs: true,
		prepare: func(seed int64, _ int, t *tracer) (func() (rig, error), error) {
			frags, ref, err := federatedData(seed)
			if err != nil {
				return nil, err
			}
			return func() (rig, error) { return buildFederated(seed, frags, ref, t) }, nil
		}},
	"subscribe": {name: "subscribe", rate: 120, warmup: 100, setups: 3, traceIDs: true,
		prepare: func(seed int64, callers int, t *tracer) (func() (rig, error), error) {
			windows, byLo := subscribeWindows(seed)
			return func() (rig, error) { return buildSubscribe(seed, windows, byLo, callers, t) }, nil
		}},
}

// config is one invocation of the benchmark.
type config struct {
	workload *workload
	rate     float64 // open-loop operations per second
	seed     int64
	seconds  float64
	trace    bool
	callers  int // sender goroutines; GOMAXPROCS
}

// runState carries the operation cursor and the attempt/failure tally
// across phases.
type runState struct {
	r         rig
	next      int
	attempted int
	failed    int
}

// phase runs one load phase and folds its outcome into the tally, with
// the oracle check outside the timed window.
func (s *runState) phase(p *phaseStats) *phaseStats {
	s.next += p.ops
	s.attempted += p.ops
	s.failed += p.failed + s.r.verify()
	return p
}

// warm runs the warm-up operations one at a time, so caches fill,
// connections pool and lazy set-up finishes before timing.
func (s *runState) warm(ctx context.Context, n int) {
	p := &phaseStats{}
	for i := 0; i < n; i++ {
		p.add(s.r.op(ctx, s.next+i, time.Now(), true))
	}
	_, failed := s.r.settle(ctx)
	p.failed += failed
	s.phase(p)
}

// setUp builds the community cfg.workload.setups times (once when
// tracing), keeping the last, and returns it with the median set-up
// time.
func setUp(cfg config, t *tracer) (rig, float64, error) {
	build, err := cfg.workload.prepare(cfg.seed, cfg.callers, t)
	if err != nil {
		return nil, 0, err
	}
	n := cfg.workload.setups
	if cfg.trace {
		n = 1
	}
	var times []float64
	var r rig
	for k := 0; k < n; k++ {
		// Close the previous community and its pooled connections and
		// drop it before collecting, so every set-up starts from about
		// the same live heap: the generated inputs.
		if r != nil {
			r.close()
			t.forget()
			r = nil
		}
		runtime.GC()
		start := time.Now()
		r, err = build()
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return r, median(times), nil
}

// measure runs one invocation and returns its result line.
func measure(ctx context.Context, cfg config) (*report, error) {
	t := newTracer(cfg.workload.traceIDs)
	r, setupS, err := setUp(cfg, t)
	if err != nil {
		return nil, err
	}
	defer r.close()
	s := &runState{r: r}
	s.warm(ctx, cfg.workload.warmup)
	if cfg.trace {
		return measureTraced(ctx, cfg, s, t)
	}

	total := time.Duration(cfg.seconds * float64(time.Second))
	openDur := total / 2
	open := s.phase(openLoop(ctx, r, s.next, int(cfg.rate*openDur.Seconds()), cfg.rate, cfg.callers))
	if late := quantile(open.late, 0.99); late > ms(lateLimit) {
		return nil, fmt.Errorf("load generator fell behind: p99 lateness %.1f ms exceeds %v; the run is invalid", late, lateLimit)
	}
	closed := s.phase(closedLoop(ctx, r, s.next, total-openDur, cfg.callers))

	completed := closed.ops - closed.failed
	if completed < 1 {
		completed = 1
	}
	prim, side := open.lat[kindPrimary], open.lat[kindSide]
	rep := &report{
		Correct:   s.failed == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics: map[string]metric{
			"setup_s":       {setupS, "s"},
			"cpu_ms_per_op": {ms(open.cpu) / float64(open.ops), "ms"},
		},
		Extra: map[string]float64{
			"p50_ms":           quantile(prim, 0.5),
			"p90_ms":           quantile(prim, 0.9),
			"p99_ms":           quantile(prim, 0.99),
			"throughput_ops_s": float64(completed) / closed.elapsed.Seconds(),
			"side_samples":     float64(len(side)),
			"side_p50_ms":      quantile(side, 0.5),
			"side_p90_ms":      quantile(side, 0.9),
			"side_p99_ms":      quantile(side, 0.99),
		},
	}

	// The live heap counts the community only: the oracle's copy of the
	// inputs is dropped first, and the latency samples are no longer
	// referenced.
	r.release()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	rep.Metrics["heap_mb"] = metric{float64(mem.HeapAlloc) / (1 << 20), "MB"}
	return rep, nil
}

// counters reads the program's own counters that the per-layer metrics
// difference around a phase.
type counters struct {
	calls, bytes, dials, hits, lookups, invalidations, fetchBytes, enqueues, evals float64
	mallocs, allocBytes, gcs, pauseNs                                              float64
}

func readCounters() counters {
	snap := telemetry.Default.Snapshot()
	sum := func(name string, labels ...string) float64 {
		total := 0.0
		for lv, v := range snap[name] {
			if len(labels) > 0 && lv != labels[0] && (len(labels) < 2 || lv != labels[1]) {
				continue
			}
			if n, ok := v.(int64); ok {
				total += float64(n)
			}
		}
		return total
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return counters{
		calls:         sum("infosleuth_transport_calls_total"),
		bytes:         sum("infosleuth_transport_bytes_sent_total") + sum("infosleuth_transport_bytes_received_total"),
		dials:         sum("infosleuth_transport_pool_dials_total"),
		hits:          sum("infosleuth_broker_match_cache_total", "hit") + sum("infosleuth_broker_shard_cache_total", "hit"),
		lookups:       sum("infosleuth_broker_match_cache_total", "hit", "miss") + sum("infosleuth_broker_shard_cache_total", "hit", "miss"),
		invalidations: sum("infosleuth_broker_match_cache_invalidations_total") + sum("infosleuth_broker_shard_cache_invalidations_total"),
		fetchBytes:    sum("infosleuth_mrq_fetch_bytes_total"),
		enqueues:      sum("infosleuth_broadcast_enqueues_total"),
		evals:         sum("infosleuth_monitor_eval_total"),
		mallocs:       float64(mem.Mallocs),
		allocBytes:    float64(mem.TotalAlloc),
		gcs:           float64(mem.NumGC),
		pauseNs:       float64(mem.PauseTotalNs),
	}
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload leaves idle).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measureTraced is the traced run: an untraced open-loop half gives the
// counter metrics and the untraced p50, then a traced half records spans
// at every layer boundary. Both halves run one sender at half the
// workload's rate, so operations rarely overlap and untagged spans can be
// attributed by time. Per-layer times come from the spans; codec costs
// from replaying sampled messages afterwards.
func measureTraced(ctx context.Context, cfg config, s *runState, t *tracer) (*report, error) {
	rate := cfg.rate / 2
	n := int(rate * cfg.seconds / 2)

	var writes, updates int
	if lr, ok := s.r.(*lookupRig); ok {
		lr.takeWrites()
	}
	if sr, ok := s.r.(*subscribeRig); ok {
		sr.takeUpdates()
	}
	c0 := readCounters()
	plain := s.phase(openLoop(ctx, s.r, s.next, n, rate, 1))
	c1 := readCounters()
	if lr, ok := s.r.(*lookupRig); ok {
		writes = lr.takeWrites()
	}
	if sr, ok := s.r.(*subscribeRig); ok {
		updates = sr.takeUpdates()
	}
	late := quantile(plain.late, 0.99)
	if late > ms(lateLimit) {
		return nil, fmt.Errorf("load generator fell behind: p99 lateness %.1f ms exceeds %v; the run is invalid", late, lateLimit)
	}

	t.on.Store(true)
	tracedPhase := s.phase(openLoop(ctx, s.r, s.next, n, rate, 1))
	t.on.Store(false)
	spans, samples := t.take()
	ls := analyze(spans, t.layerOf)
	enc, dec, size, allocs := replayCodec(samples)

	ops := float64(plain.ops)
	d := func(a, b float64) float64 { return b - a }
	m := map[string]metric{
		"kqml.encode_us":                 {enc, "us"},
		"kqml.decode_us":                 {dec, "us"},
		"kqml.bytes_per_msg":             {size, "B/msg"},
		"kqml.allocs_per_msg":            {allocs, "allocs/msg"},
		"transport.rpc_self_us":          {ls.rpcSelfUS, "us"},
		"transport.rpcs_per_op":          {d(c0.calls, c1.calls) / ops, "1/op"},
		"transport.bytes_per_op":         {d(c0.bytes, c1.bytes) / ops, "B/op"},
		"transport.dials_per_op":         {d(c0.dials, c1.dials) / ops, "1/op"},
		"broker.search_self_us":          {ls.brokerSearchUS, "us"},
		"broker.forward_us":              {ls.brokerForwardUS, "us"},
		"broker.advertise_self_us":       {ls.brokerAdvertUS, "us"},
		"broker.cache_hit_ratio":         {ratio(d(c0.hits, c1.hits), d(c0.lookups, c1.lookups)), "ratio"},
		"broker.invalidations_per_write": {ratio(d(c0.invalidations, c1.invalidations), float64(writes)), "1/write"},
		"useragent.locate_us":            {ls.userLocateUS, "us"},
		"mrq.self_us":                    {ls.mrqSelfUS, "us"},
		"mrq.locate_us":                  {ls.mrqLocateUS, "us"},
		"mrq.fetch_us":                   {ls.mrqFetchUS, "us"},
		"mrq.fetches_per_op":             {float64(ls.mrqFetches) / float64(tracedPhase.ops), "1/op"},
		"mrq.fetch_bytes_per_op":         {d(c0.fetchBytes, c1.fetchBytes) / ops, "B/op"},
		"resource.query_self_us":         {ls.resourceQueryUS, "us"},
		"resource.insert_us":             {ls.resourceInsertUS, "us"},
		"broadcast.enqueues_per_change":  {subsOnly(s.r, d(c0.enqueues, c1.enqueues)/ops), "1/op"},
		"resource.evals_per_change":      {subsOnly(s.r, d(c0.evals, c1.evals)/ops), "1/op"},
		"resource.useful_eval_ratio":     {ratio(float64(updates), d(c0.evals, c1.evals)), "ratio"},
		"resource.eval_wait_us":          {ls.evalWaitUS, "us"},
		"resource.deliver_us":            {ls.deliverUS, "us"},
		"runtime.allocs_per_op":          {d(c0.mallocs, c1.mallocs) / ops, "1/op"},
		"runtime.alloc_kb_per_op":        {d(c0.allocBytes, c1.allocBytes) / 1024 / ops, "kB/op"},
		"runtime.gc_per_kop":             {d(c0.gcs, c1.gcs) * 1000 / ops, "1/kop"},
		"runtime.gc_pause_us_per_op":     {d(c0.pauseNs, c1.pauseNs) / 1000 / ops, "us"},
		"loadgen.late_p99_ms":            {late, "ms"},
		"trace.overhead_ratio": {quantile(tracedPhase.lat[kindPrimary], 0.5) /
			quantile(plain.lat[kindPrimary], 0.5), "ratio"},
	}
	return &report{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: m}, nil
}

// subsOnly keeps a per-change count on the subscribe workload; elsewhere
// the operations are not changes and the layer is idle.
func subsOnly(r rig, v float64) float64 {
	if _, ok := r.(*subscribeRig); ok {
		return v
	}
	return 0
}

// replayCodec times kqml.Marshal and kqml.Unmarshal over the sampled wire
// frames and returns µs per encode, µs per decode, bytes per message and
// allocations per encode+decode.
func replayCodec(frames [][]byte) (encUS, decUS, size, allocs float64) {
	if len(frames) == 0 {
		return 0, 0, 0, 0
	}
	msgs := make([]*kqml.Message, len(frames))
	for i, f := range frames {
		m, err := kqml.Unmarshal(f)
		if err != nil {
			return 0, 0, 0, 0
		}
		msgs[i] = m
		size += float64(len(f))
	}
	size /= float64(len(msgs))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, m := range msgs {
		_, _ = kqml.Marshal(m)
		_, _ = kqml.Unmarshal(frames[i])
	}
	runtime.ReadMemStats(&m1)
	allocs = float64(m1.Mallocs-m0.Mallocs) / float64(len(msgs))

	const budget = 200 * time.Millisecond
	var encN, decN int
	start := time.Now()
	for time.Since(start) < budget {
		for _, m := range msgs {
			_, _ = kqml.Marshal(m)
		}
		encN += len(msgs)
	}
	encUS = float64(time.Since(start).Microseconds()) / float64(encN)
	start = time.Now()
	for time.Since(start) < budget {
		for _, f := range frames {
			_, _ = kqml.Unmarshal(f)
		}
		decN += len(frames)
	}
	decUS = float64(time.Since(start).Microseconds()) / float64(decN)
	return encUS, decUS, size, allocs
}
