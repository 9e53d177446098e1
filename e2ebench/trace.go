package main

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"infosleuth/internal/kqml"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/transport"
)

// Span kinds recorded by the traced run.
const (
	spanClient = iota // a Call made by one agent
	spanServer        // a handler run at one listener
	spanLocal         // the benchmark's InsertRow call into a resource agent
)

// span is one timed call at a layer boundary. Times are nanoseconds on
// the tracer's monotonic clock.
type span struct {
	kind  int
	trace string
	// link ties a client span to the server span it caused: the client
	// stamps it into the request's reply-with field.
	link uint64
	// from is the caller's listener address (client spans); at is the
	// serving listener address (server spans) or the target (client).
	from, at   string
	layer      string // layer of the caller (client) or server
	perf       kqml.Performative
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// interval is a closed-open time range [start, end).
type interval struct{ start, end int64 }

// selfTime returns the part of parent not covered by any child: the
// parent's duration minus the union of the children clipped to it.
// Children may nest, overlap (parallel calls) or be disjoint.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	return (parent.end - parent.start) - unionLen(clipped)
}

// unionLen returns the total length covered by the intervals.
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	cur := interval{start: -1, end: -1}
	for _, iv := range ivs {
		if cur.end < 0 || iv.start > cur.end {
			if cur.end >= 0 {
				total += cur.end - cur.start
			}
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	if cur.end >= 0 {
		total += cur.end - cur.start
	}
	return total
}

// linkMarker separates a request's own reply-with value from the span
// link the traced transport appends to it.
const linkMarker = "~e2e"

// maxSamples bounds the KQML messages kept for the codec replay.
const maxSamples = 512

// tracer records spans while on. It is shared by every agent's traced
// transport; spans stay in memory until the run ends.
type tracer struct {
	base time.Time
	on   atomic.Bool
	next atomic.Uint64
	// tagIDs makes operations carry a program trace ID while tracing. An
	// untagged operation's spans have an empty trace and are attributed
	// by time alone, which is exact while one operation is in flight.
	tagIDs bool

	mu      sync.Mutex
	spans   []span
	layerAt map[string]string // listener address -> layer
	samples [][]byte          // wire frames sampled for the codec replay
	// tcps are the TCP transports agents run on, reused from one set-up
	// to the next; used counts those the live community has taken.
	tcps []*transport.TCP
	used int
}

func newTracer(tagIDs bool) *tracer {
	return &tracer{base: time.Now(), tagIDs: tagIDs, layerAt: make(map[string]string)}
}

// forget drops what the tracer holds for a closed community: its
// listener addresses and its agents' pooled client connections. The
// transports are kept for the next community. Fresh ones would each
// leave a connection-pool reaper goroutine behind until its next tick,
// 30 s on, and the runtime never frees a goroutine's descriptor, so
// every set-up would add to the heap the run measures.
func (t *tracer) forget() {
	t.mu.Lock()
	tcps := t.tcps
	t.used, t.layerAt = 0, make(map[string]string)
	t.mu.Unlock()
	for _, tr := range tcps {
		tr.CloseIdleConnections()
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// local records a span around the benchmark's InsertRow call.
func (t *tracer) local(trace string, start, end int64) {
	t.record(span{kind: spanLocal, layer: "resource", trace: trace, start: start, end: end})
}

// sample keeps a copy of a message's wire frame for the codec replay,
// one call in four, up to maxSamples frames.
func (t *tracer) sample(id uint64, msgs ...*kqml.Message) {
	if id%4 != 0 {
		return
	}
	t.mu.Lock()
	full := len(t.samples) >= maxSamples
	t.mu.Unlock()
	if full {
		return
	}
	for _, m := range msgs {
		if m == nil {
			continue
		}
		if b, err := kqml.Marshal(m); err == nil {
			t.mu.Lock()
			t.samples = append(t.samples, b)
			t.mu.Unlock()
		}
	}
}

// take returns and clears the recorded spans and samples.
func (t *tracer) take() ([]span, [][]byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, m := t.spans, t.samples
	t.spans, t.samples = nil, nil
	return s, m
}

func (t *tracer) layerOf(addr string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.layerAt[addr]
}

// tracedTransport wraps one agent's transport. It times every Call and
// every handler passed to Listen while the tracer is on; off, it adds one
// atomic load per call.
type tracedTransport struct {
	inner transport.Transport
	t     *tracer
	layer string

	mu   sync.Mutex
	self string // the agent's own listener address, once bound
}

func (tt *tracedTransport) Listen(addr string, h transport.Handler) (transport.Listener, error) {
	var at atomic.Value
	at.Store("")
	l, err := tt.inner.Listen(addr, func(msg *kqml.Message) *kqml.Message {
		if !tt.t.on.Load() {
			return h(msg)
		}
		start := tt.t.now()
		reply := h(msg)
		s := span{kind: spanServer, trace: msg.TraceID, at: at.Load().(string), layer: tt.layer,
			perf: msg.Performative, start: start, end: tt.t.now()}
		if i := strings.LastIndex(msg.ReplyWith, linkMarker); i >= 0 {
			s.link, _ = strconv.ParseUint(msg.ReplyWith[i+len(linkMarker):], 10, 64)
		}
		tt.t.record(s)
		return reply
	})
	if err != nil {
		return nil, err
	}
	at.Store(l.Addr())
	tt.t.mu.Lock()
	tt.t.layerAt[l.Addr()] = tt.layer
	tt.t.mu.Unlock()
	tt.mu.Lock()
	tt.self = l.Addr()
	tt.mu.Unlock()
	return l, nil
}

func (tt *tracedTransport) Call(ctx context.Context, addr string, msg *kqml.Message) (*kqml.Message, error) {
	if !tt.t.on.Load() {
		return tt.inner.Call(ctx, addr, msg)
	}
	trace := msg.TraceID
	if trace == "" {
		trace = telemetry.TraceIDFrom(ctx)
	}
	id := tt.t.next.Add(1)
	tagged := *msg
	tagged.ReplyWith = msg.ReplyWith + linkMarker + strconv.FormatUint(id, 10)
	tt.mu.Lock()
	from := tt.self
	tt.mu.Unlock()
	if from == "" {
		from = tt.layer
	}
	start := tt.t.now()
	reply, err := tt.inner.Call(ctx, addr, &tagged)
	tt.t.record(span{kind: spanClient, trace: trace, link: id, from: from, at: addr,
		layer: tt.layer, perf: msg.Performative, start: start, end: tt.t.now()})
	tt.t.sample(id, msg, reply)
	return reply, err
}

// layerStats is the per-layer rollup of one traced phase. Times are mean
// microseconds per span unless the name says otherwise.
type layerStats struct {
	rpcSelfUS        float64
	brokerSearchUS   float64
	brokerForwardUS  float64
	brokerAdvertUS   float64
	userLocateUS     float64
	mrqSelfUS        float64
	mrqLocateUS      float64
	mrqFetchUS       float64 // wall time of the fan-out per MRQ request
	mrqFetches       int     // MRQ -> resource calls
	resourceQueryUS  float64
	resourceInsertUS float64
	evalWaitUS       float64
	deliverUS        float64
}

// mean accumulates an average.
type mean struct {
	sum float64
	n   int
}

func (m *mean) add(v float64) { m.sum += v; m.n++ }

func (m *mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// analyze turns a phase's spans into per-layer self and call times.
// Server spans are keyed by listener address; a client span is a child of
// the server span at its caller's address with the same trace ID that
// contains it in time.
func analyze(spans []span, layerOf func(string) string) layerStats {
	type key struct{ from, trace string }
	clients := make(map[uint64]span)
	byCaller := make(map[key][]span)
	insertEnd := make(map[string]int64)
	for _, s := range spans {
		switch s.kind {
		case spanClient:
			clients[s.link] = s
			byCaller[key{s.from, s.trace}] = append(byCaller[key{s.from, s.trace}], s)
		case spanLocal:
			insertEnd[s.trace] = s.end
		}
	}
	const us = 1e3
	var (
		rpcSelf, search, forward, advert, locate, mrqSelf, mrqLocate, mrqFetch,
		rq, insert, evalWait, deliver mean
		fetches int
	)
	for _, s := range spans {
		switch s.kind {
		case spanServer:
			trace := s.trace
			if c, ok := clients[s.link]; ok {
				rpcSelf.add(float64(c.dur()-s.dur()) / us)
				if trace == "" {
					trace = c.trace
				}
			}
			var kids, fetch []interval
			for _, c := range byCaller[key{s.at, trace}] {
				if c.start >= s.start && c.end <= s.end {
					kids = append(kids, interval{c.start, c.end})
					if layerOf(c.at) == "resource" {
						fetch = append(fetch, interval{c.start, c.end})
					}
				}
			}
			self := float64(selfTime(interval{s.start, s.end}, kids)) / us
			switch {
			case s.layer == "broker" && s.perf == kqml.AskAll:
				search.add(self)
			case s.layer == "broker" && (s.perf == kqml.Advertise || s.perf == kqml.Unadvertise):
				advert.add(self)
			case s.layer == "mrq":
				mrqSelf.add(self)
				mrqFetch.add(float64(unionLen(fetch)) / us)
			case s.layer == "resource" && s.perf == kqml.AskAll:
				rq.add(self)
			}
		case spanClient:
			d := float64(s.dur()) / us
			target := layerOf(s.at)
			switch {
			case s.layer == "broker" && target == "broker":
				forward.add(d)
			case s.layer == "useragent" && target == "broker":
				locate.add(d)
			case s.layer == "mrq" && target == "broker":
				mrqLocate.add(d)
			case s.layer == "mrq" && target == "resource":
				fetches++
			case s.layer == "resource" && s.perf == kqml.Update:
				deliver.add(d)
				if end, ok := insertEnd[s.trace]; ok {
					evalWait.add(float64(s.start-end) / us)
				}
			}
		case spanLocal:
			insert.add(float64(s.dur()) / us)
		}
	}
	return layerStats{
		rpcSelfUS:        rpcSelf.value(),
		brokerSearchUS:   search.value(),
		brokerForwardUS:  forward.value(),
		brokerAdvertUS:   advert.value(),
		userLocateUS:     locate.value(),
		mrqSelfUS:        mrqSelf.value(),
		mrqLocateUS:      mrqLocate.value(),
		mrqFetchUS:       mrqFetch.value(),
		mrqFetches:       fetches,
		resourceQueryUS:  rq.value(),
		resourceInsertUS: insert.value(),
		evalWaitUS:       evalWait.value(),
		deliverUS:        deliver.value(),
	}
}
