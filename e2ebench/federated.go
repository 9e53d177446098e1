package main

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"infosleuth/internal/broker"
	"infosleuth/internal/constraint"
	"infosleuth/internal/mrq"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/resource"
	"infosleuth/internal/sqlparse"
	"infosleuth/internal/useragent"
)

// The federated workload: one small broker, six resource agents laid out
// like the paper's Table 1 streams, one MRQ agent and one user agent.
//
//	C3  row split over two agents with disjoint advertised ranges of a
//	C5  vertical split: (id, a, b) and (id, c, d)
//	C2  class hierarchy: subclasses C2a and C2b on one agent each
const (
	fedC3Rows    = 300 // per fragment
	fedC5Rows    = 300
	fedC2Rows    = 60 // per subclass: the semi-join build side
	fedFillerAds = 24 // ads for classes no query names, so the repository holds tens
)

// Query shapes of the federated mix.
const (
	fedRange     = iota // range select pushed to one C3 fragment
	fedFilter           // filter over both C5 fragments
	fedJoin             // two-class join, planned as a semi-join
	fedAggregate        // aggregate, planned as partial-aggregate pushdown
	fedShapes
)

// genFederatedSQL returns operation i's statement and its shape.
func genFederatedSQL(seed int64, i int) (string, int) {
	shape := int(mix(seed, uint64(i), 1) % fedShapes)
	x := func(lo, hi int) int { return between(seed, uint64(i), 2, lo, hi) }
	switch shape {
	case fedRange:
		lo := x(0, 450)
		if mix(seed, uint64(i), 3)%2 == 1 {
			lo += 500
		}
		return fmt.Sprintf("SELECT id, a, b FROM C3 WHERE a BETWEEN %d AND %d", lo, lo+40), shape
	case fedFilter:
		return fmt.Sprintf("SELECT id, a, d FROM C5 WHERE d < %d", x(100, 300)), shape
	case fedJoin:
		return fmt.Sprintf("SELECT C2.id, C3.id, C3.a FROM C2, C3 WHERE C2.b = C3.b AND C2.a < %d", x(200, 600)), shape
	default:
		return fmt.Sprintf("SELECT COUNT(*), SUM(b), MIN(c), MAX(d), AVG(b) FROM C3 WHERE c >= %d", x(0, 500)), shape
	}
}

// fedRow draws a generic row (id, a, b, c, d[, extra]) with a in
// [aLo, aHi) and b in [0, 100), so joins on b fan out a few rows each.
func fedRow(seed int64, tag uint64, k int, id string, aLo, aHi int, extra bool) relational.Row {
	r := relational.Row{
		relational.Str(id),
		relational.Num(float64(between(seed, uint64(k), tag, aLo, aHi))),
		relational.Num(float64(between(seed, uint64(k), tag+1, 0, 100))),
		relational.Num(float64(between(seed, uint64(k), tag+2, 0, 1000))),
		relational.Num(float64(between(seed, uint64(k), tag+3, 0, 1000))),
	}
	if extra {
		r = append(r, relational.Num(float64(between(seed, uint64(k), tag+4, 0, 1000))))
	}
	return r
}

// fedResource is one resource agent's generated table and advertised
// fragment.
type fedResource struct {
	name     string
	schema   relational.Schema
	rows     []relational.Row
	fragment ontology.Fragment
	caps     []string
}

// database loads the agent's own database from the generated rows; the
// set-up calls it, so each set-up's agents own fresh tables.
func (f fedResource) database() (*relational.Database, error) {
	db := relational.NewDatabase()
	tbl, err := db.Create(f.schema)
	if err != nil {
		return nil, err
	}
	for _, row := range f.rows {
		if err := tbl.Insert(row); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// federatedData generates the fragments and the reference database that
// holds all of them, which the oracle queries with sqlparse.Execute.
func federatedData(seed int64) ([]fedResource, *relational.Database, error) {
	ref := relational.NewDatabase()
	refC3 := ref.MustCreate(relational.GenericSchema("C3"))
	refC5 := ref.MustCreate(relational.GenericSchema("C5"))
	refC2 := ref.MustCreate(relational.GenericSchema("C2"))
	var out []fedResource

	for f, half := range []struct{ lo, hi int }{{0, 500}, {500, 1000}} {
		rows := make([]relational.Row, fedC3Rows)
		for k := range rows {
			rows[k] = fedRow(seed, 0x30+uint64(f)*8, k, fmt.Sprintf("c3-%d-%03d", f, k), half.lo, half.hi, false)
			refC3.MustInsert(rows[k])
		}
		out = append(out, fedResource{
			name: fmt.Sprintf("C3-rows-%d", f), schema: relational.GenericSchema("C3"), rows: rows,
			fragment: ontology.Fragment{Ontology: "generic", Classes: []string{"C3"},
				Constraints: constraint.MustParse(fmt.Sprintf("C3.a between %d and %d", half.lo, half.hi-1))},
			caps: []string{ontology.CapRelationalQueryProcessing, ontology.CapAggregation},
		})
	}

	for k := 0; k < fedC5Rows; k++ {
		refC5.MustInsert(fedRow(seed, 0x50, k, fmt.Sprintf("c5-%03d", k), 0, 1000, false))
	}
	for _, cols := range [][]string{{"a", "b"}, {"c", "d"}} {
		frag, err := relational.VerticalFragment(refC5, "C5", cols)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, fedResource{
			name: "C5-cols-" + cols[0] + cols[1], schema: frag.Schema(), rows: frag.Rows(),
			fragment: ontology.Fragment{Ontology: "generic", Classes: []string{"C5"},
				Slots: map[string][]string{"C5": append([]string{"id"}, cols...)}},
		})
	}

	for s, sub := range []struct{ class, slot string }{{"C2a", "e"}, {"C2b", "f"}} {
		schema := relational.GenericSchema(sub.class)
		schema.Columns = append(schema.Columns, relational.Column{Name: sub.slot, Type: relational.TypeNumber})
		rows := make([]relational.Row, fedC2Rows)
		for k := range rows {
			rows[k] = fedRow(seed, 0x20+uint64(s)*8, k, fmt.Sprintf("%s-%03d", sub.class, k), 0, 1000, true)
			refC2.MustInsert(rows[k][:5])
		}
		out = append(out, fedResource{
			name: "C2-sub-" + sub.class, schema: schema, rows: rows,
			fragment: ontology.Fragment{Ontology: "generic", Classes: []string{sub.class}},
		})
	}
	return out, ref, nil
}

type fedAnswer struct {
	op  int
	res *sqlparse.Result
}

type federatedRig struct {
	seed      int64
	t         *tracer
	ref       *relational.Database
	broker    *broker.Broker
	resources []*resource.Agent
	mrq       *mrq.Agent
	user      *useragent.Agent

	mu      sync.Mutex
	answers []fedAnswer
}

// buildFederated starts the community with the daemons' default flags
// and registers every agent with the broker over the wire.
func buildFederated(seed int64, frags []fedResource, ref *relational.Database, t *tracer) (*federatedRig, error) {
	ctx := context.Background()
	world := ontology.NewWorld(ontology.Generic(), ontology.Healthcare())
	r := &federatedRig{seed: seed, t: t, ref: ref}
	b, err := broker.New(broker.Config{
		Name: "Broker1", Address: loopback, Transport: tcp(t, "broker"), World: world,
		MaxHopCount: 4, Community: "default", Consortia: []string{"consortium-1"},
	})
	if err != nil {
		return nil, err
	}
	if err := b.Start(); err != nil {
		return nil, err
	}
	r.broker = b
	for k := 0; k < fedFillerAds; k++ {
		class := []string{"C1", "C4", "C6"}[k%3]
		ad := rangeAd{name: fmt.Sprintf("filler-%02d", k), class: class, lo: k * 1000, hi: k*1000 + 999}
		if err := b.Repository().Put(ad.ad()); err != nil {
			r.close()
			return nil, err
		}
	}
	for _, f := range frags {
		db, err := f.database()
		if err != nil {
			r.close()
			return nil, err
		}
		// resourced's defaults: CDC notify path, 5s advertised response.
		ra, err := resource.New(resource.Config{
			Name: f.name, Address: loopback, Transport: tcp(t, "resource"),
			KnownBrokers: []string{b.Addr()}, Redundancy: 1,
			DB: db, Fragment: f.fragment, Capabilities: f.caps,
			World: world, EstimatedResponseSec: 5,
		})
		if err != nil {
			r.close()
			return nil, err
		}
		if err := ra.Start(); err != nil {
			r.close()
			return nil, err
		}
		r.resources = append(r.resources, ra)
		if _, err := ra.Advertise(ctx); err != nil {
			r.close()
			return nil, err
		}
	}
	// mrqd's defaults: planner on, default fan-out, pushdown on.
	m, err := mrq.New(mrq.Config{
		Name: "MRQ agent", Address: loopback, Transport: tcp(t, "mrq"),
		KnownBrokers: []string{b.Addr()}, World: world, Ontology: "generic",
		PushConstraints: true, Planner: true, SemiJoinMaxKeys: mrq.DefaultSemiJoinMaxKeys,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	if err := m.Start(); err != nil {
		r.close()
		return nil, err
	}
	r.mrq = m
	if _, err := m.Advertise(ctx); err != nil {
		r.close()
		return nil, err
	}
	u, err := useragent.New(useragent.Config{
		Name: "user agent", Address: loopback, Transport: tcp(t, "useragent"),
		KnownBrokers: []string{b.Addr()},
	})
	if err != nil {
		r.close()
		return nil, err
	}
	if err := u.Start(); err != nil {
		r.close()
		return nil, err
	}
	r.user = u
	if _, err := u.Advertise(ctx); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *federatedRig) op(ctx context.Context, i int, due time.Time, _ bool) result {
	sql, shape := genFederatedSQL(r.seed, i)
	ctx, _ = traced(ctx, r.t, r.seed, i)
	res, err := r.user.Submit(ctx, sql)
	lat := time.Since(due)
	out := result{primary: lat, hasPrimary: true, failed: err != nil}
	if shape == fedJoin || shape == fedAggregate {
		out.side, out.hasSide = lat, true
	}
	if err == nil {
		r.mu.Lock()
		r.answers = append(r.answers, fedAnswer{op: i, res: res})
		r.mu.Unlock()
	}
	return out
}

func (r *federatedRig) settle(context.Context) ([]time.Duration, int) { return nil, 0 }

// verify compares every answer with sqlparse.Execute over the reference
// database holding all the fragments.
func (r *federatedRig) verify() int {
	r.mu.Lock()
	answers := r.answers
	r.answers = nil
	r.mu.Unlock()
	wrong := 0
	for _, a := range answers {
		sql, _ := genFederatedSQL(r.seed, a.op)
		want, err := sqlparse.Execute(r.ref, sqlparse.MustParse(sql))
		if err == nil {
			err = sameAnswer(a.res.Columns, want.Columns, a.res.Rows, want.Rows)
		}
		if err != nil {
			slog.Warn("wrong answer", "workload", "federated", "op", a.op, "sql", sql, "err", err)
			wrong++
		}
	}
	return wrong
}

func (r *federatedRig) release() {
	r.mu.Lock()
	r.ref, r.answers = nil, nil
	r.mu.Unlock()
}

func (r *federatedRig) close() {
	if r.user != nil {
		r.user.Stop()
	}
	if r.mrq != nil {
		r.mrq.Stop()
	}
	for _, ra := range r.resources {
		ra.Stop()
	}
	if r.broker != nil {
		r.broker.Stop()
	}
}
