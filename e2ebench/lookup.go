package main

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"infosleuth/internal/agent"
	"infosleuth/internal/broker"
	"infosleuth/internal/constraint"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/telemetry"
)

// The lookup workload: a 2-broker consortium holding 20k resource ads,
// each one class plus one numeric range. Searches name a class and a
// window, so a search matches ~10 ads locally and forwards to the peer
// under the default policy (one hop, follow all).
const (
	lookupAds      = 20_000
	lookupDomain   = 1_000_000
	lookupMinWidth = 500  // ad and query windows are [min, max) wide
	lookupMaxWidth = 1500 // bounds the oracle's candidate scan
	lookupHot      = 64   // hot queries; fits the 256-entry match cache
	lookupHotShare = 0.5
	// An even operation advertises a churned ad with probability
	// lookupWriteShare, and the operation lookupLag later (odd, so never
	// itself an advertise) withdraws it: writes are lookupWriteShare of
	// the operations, ~1 per 10 searches.
	lookupWriteShare = 1.0 / 11
	lookupLag        = 701
)

var lookupClasses = []string{"C1", "C3", "C4", "C5"}

// Kinds of lookup operation.
const (
	lookupSearch = iota
	lookupAdvertise
	lookupUnadvertise
)

// lookupOp is one generated lookup operation.
type lookupOp struct {
	kind   int
	broker int // index of the broker the operation goes to
	class  string
	lo, hi int // search window, or the churned ad's id for writes
}

// rangeAd is a generated advertisement: one class, one numeric range.
type rangeAd struct {
	name   string
	class  string
	lo, hi int
}

func (a rangeAd) ad() *ontology.Advertisement {
	return &ontology.Advertisement{
		Name:             a.name,
		Address:          "tcp://127.0.0.1:9",
		Type:             ontology.TypeResource,
		CommLanguages:    []string{ontology.LangKQML},
		ContentLanguages: []string{ontology.LangSQL2},
		Conversations:    []string{ontology.ConvAskAll},
		Capabilities:     []string{ontology.CapRelationalQueryProcessing},
		Content: []ontology.Fragment{{
			Ontology:    "generic",
			Classes:     []string{a.class},
			Constraints: constraint.MustParse(fmt.Sprintf("%s.a between %d and %d", a.class, a.lo, a.hi)),
		}},
	}
}

// genRange draws a class and a window from (seed, i, tag).
func genRange(seed int64, i, tag uint64) (string, int, int) {
	class := lookupClasses[mix(seed, i, tag)%uint64(len(lookupClasses))]
	lo := between(seed, i, tag+1, 0, lookupDomain-lookupMaxWidth)
	return class, lo, lo + between(seed, i, tag+2, lookupMinWidth, lookupMaxWidth)
}

func lookupBaseAd(seed int64, k int) rangeAd {
	class, lo, hi := genRange(seed, uint64(k), 0xad)
	return rangeAd{name: fmt.Sprintf("ad-%05d", k), class: class, lo: lo, hi: hi}
}

func lookupChurnAd(seed int64, i int) rangeAd {
	class, lo, hi := genRange(seed, uint64(i), 0xc4)
	return rangeAd{name: fmt.Sprintf("churn-%07d", i), class: class, lo: lo, hi: hi}
}

func isAdvertise(seed int64, i int) bool {
	return i%2 == 0 && unit(seed, uint64(i), 1) < lookupWriteShare
}

// genLookupOp returns operation i of the lookup sequence.
func genLookupOp(seed int64, i int) lookupOp {
	switch {
	case isAdvertise(seed, i):
		return lookupOp{kind: lookupAdvertise, broker: int(mix(seed, uint64(i), 2) % 2), lo: i}
	case i >= lookupLag && isAdvertise(seed, i-lookupLag):
		j := i - lookupLag
		return lookupOp{kind: lookupUnadvertise, broker: int(mix(seed, uint64(j), 2) % 2), lo: j}
	}
	op := lookupOp{kind: lookupSearch, broker: int(mix(seed, uint64(i), 3) % 2)}
	if unit(seed, uint64(i), 4) < lookupHotShare {
		h := mix(seed, uint64(i), 5) % lookupHot
		op.class, op.lo, op.hi = genRange(seed, h, 0x407)
	} else {
		op.class, op.lo, op.hi = genRange(seed, uint64(i), 0xf5)
	}
	return op
}

func lookupQuery(op lookupOp) *ontology.Query {
	return &ontology.Query{
		Type:        ontology.TypeResource,
		Ontology:    "generic",
		Classes:     []string{op.class},
		Constraints: constraint.MustParse(fmt.Sprintf("%s.a between %d and %d", op.class, op.lo, op.hi)),
	}
}

// lookupData is the benchmark's copy of the base ads, generated once per
// run: the oracle matches against it.
type lookupData struct {
	seed int64
	ads  []rangeAd
	// byClass holds each class's ads sorted by range start.
	byClass map[string][]rangeAd
	world   *ontology.World
}

func newLookupData(seed int64) *lookupData {
	d := &lookupData{seed: seed, byClass: make(map[string][]rangeAd),
		world: ontology.NewWorld(ontology.Generic(), ontology.Healthcare())}
	for k := 0; k < lookupAds; k++ {
		a := lookupBaseAd(seed, k)
		d.ads = append(d.ads, a)
		d.byClass[a.class] = append(d.byClass[a.class], a)
	}
	for _, ads := range d.byClass {
		sort.Slice(ads, func(i, j int) bool { return ads[i].lo < ads[j].lo })
	}
	return d
}

// advertisements builds the base ads the set-ups load. Only the set-ups
// hold them, so they are garbage once set-up ends.
func (d *lookupData) advertisements() []*ontology.Advertisement {
	out := make([]*ontology.Advertisement, len(d.ads))
	for k, a := range d.ads {
		out[k] = a.ad()
	}
	return out
}

// expect returns the base ads ontology.Match accepts for the query. Only
// ads of the query's class whose range starts within lookupMaxWidth
// before the window can overlap it, so only those are matched; the
// generic classes used here have no subclasses.
func (d *lookupData) expect(op lookupOp) []string {
	q := lookupQuery(op)
	ads := d.byClass[op.class]
	from := sort.Search(len(ads), func(i int) bool { return ads[i].lo >= op.lo-lookupMaxWidth })
	var out []string
	for _, a := range ads[from:] {
		if a.lo > op.hi {
			break
		}
		if ontology.Match(d.world, a.ad(), q) == ontology.Matched {
			out = append(out, a.name)
		}
	}
	sort.Strings(out)
	return out
}

type lookupReply struct {
	op    int
	names []string
}

type lookupRig struct {
	data    *lookupData
	t       *tracer
	brokers []*broker.Broker
	clients []*agent.Base // one query agent per broker

	mu      sync.Mutex
	replies []lookupReply
	writes  int
}

// buildLookup starts the consortium and bulk-loads the base ads, split
// across the two brokers.
func buildLookup(data *lookupData, ads []*ontology.Advertisement, t *tracer) (*lookupRig, error) {
	r := &lookupRig{data: data, t: t}
	for i := 0; i < 2; i++ {
		// brokerd's defaults: compiled matcher, match cache on, 1 shard.
		b, err := broker.New(broker.Config{
			Name:        fmt.Sprintf("Broker%d", i+1),
			Address:     loopback,
			Transport:   tcp(t, "broker"),
			World:       data.world,
			MaxHopCount: 4,
			Community:   "default",
			Consortia:   []string{"consortium-1"},
		})
		if err != nil {
			r.close()
			return nil, err
		}
		if err := b.Start(); err != nil {
			r.close()
			return nil, err
		}
		r.brokers = append(r.brokers, b)
	}
	if err := r.brokers[1].JoinConsortium(context.Background(), r.brokers[0].Addr()); err != nil {
		r.close()
		return nil, err
	}
	for k, ad := range ads {
		if err := r.brokers[k%2].Repository().Put(ad); err != nil {
			r.close()
			return nil, err
		}
	}
	for i, b := range r.brokers {
		c, err := agent.New(agent.Config{
			Name:         fmt.Sprintf("query-agent-%d", i+1),
			Transport:    tcp(t, "bench"),
			KnownBrokers: []string{b.Addr()},
		})
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, c)
	}
	return r, nil
}

func (r *lookupRig) op(ctx context.Context, i int, due time.Time, _ bool) result {
	op := genLookupOp(r.data.seed, i)
	ctx, _ = traced(ctx, r.t, r.data.seed, i)
	c := r.clients[op.broker]
	if op.kind == lookupSearch {
		br, err := c.QueryBrokers(ctx, lookupQuery(op))
		res := result{primary: time.Since(due), hasPrimary: true, failed: err != nil}
		if err == nil {
			names := make([]string, len(br.Matches))
			for k, m := range br.Matches {
				names[k] = m.Name
			}
			r.mu.Lock()
			r.replies = append(r.replies, lookupReply{op: i, names: names})
			r.mu.Unlock()
		}
		return res
	}
	ad := lookupChurnAd(r.data.seed, op.lo).ad()
	perf := kqml.Advertise
	if op.kind == lookupUnadvertise {
		perf = kqml.Unadvertise
	}
	msg := kqml.New(perf, ad.Name, &kqml.AdvertiseContent{Ad: ad})
	msg.Ontology = kqml.ServiceOntology
	msg.TraceID = telemetry.TraceIDFrom(ctx)
	reply, err := c.Call(ctx, r.brokers[op.broker].Addr(), msg)
	r.mu.Lock()
	r.writes++
	r.mu.Unlock()
	return result{side: time.Since(due), hasSide: true,
		failed: err != nil || reply.Performative != kqml.Tell}
}

func (r *lookupRig) settle(context.Context) ([]time.Duration, int) { return nil, 0 }

// verify compares each recorded reply with ontology.Match over the base
// ads. A churned ad may appear or not, but only where it matches.
func (r *lookupRig) verify() int {
	r.mu.Lock()
	replies := r.replies
	r.replies = nil
	r.mu.Unlock()
	wrong := 0
	for _, rep := range replies {
		op := genLookupOp(r.data.seed, rep.op)
		q := lookupQuery(op)
		var base []string
		ok := true
		for _, n := range rep.names {
			if !strings.HasPrefix(n, "churn-") {
				base = append(base, n)
				continue
			}
			var j int
			if _, err := fmt.Sscanf(n, "churn-%d", &j); err != nil ||
				ontology.Match(r.data.world, lookupChurnAd(r.data.seed, j).ad(), q) != ontology.Matched {
				ok = false
			}
		}
		sort.Strings(base)
		if ok && strings.Join(base, ",") != strings.Join(r.data.expect(op), ",") {
			ok = false
		}
		if !ok {
			slog.Warn("wrong answer", "workload", "lookup", "op", rep.op, "query", q.String(), "reply", rep.names)
			wrong++
		}
	}
	return wrong
}

// takeWrites returns the writes sent since the previous call.
func (r *lookupRig) takeWrites() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.writes
	r.writes = 0
	return w
}

func (r *lookupRig) release() {
	r.mu.Lock()
	r.data, r.replies = nil, nil
	r.mu.Unlock()
}

func (r *lookupRig) close() {
	for _, b := range r.brokers {
		b.Stop()
	}
}
