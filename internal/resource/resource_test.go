package resource

import (
	"context"
	"strings"
	"testing"
	"time"

	"infosleuth/internal/constraint"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/sqlparse"
	"infosleuth/internal/transport"
)

func newResource(t *testing.T, opts ...func(*Config)) (*Agent, transport.Transport) {
	t.Helper()
	tr := transport.NewInProc()
	db := relational.NewDatabase()
	if _, err := relational.GenerateGeneric(db, "C2", 20, 1); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name:      "DB1 resource agent",
		Transport: tr,
		DB:        db,
		Fragment:  ontology.Fragment{Ontology: "generic", Classes: []string{"C2"}},
	}
	for _, o := range opts {
		o(&cfg)
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Stop() })
	return a, tr
}

func TestResourceAnswersSQL(t *testing.T) {
	a, tr := newResource(t)
	msg := kqml.New(kqml.AskAll, "tester", &kqml.SQLQuery{SQL: "SELECT id, a FROM C2 WHERE a >= 0"})
	msg.Language = ontology.LangSQL2
	reply, err := tr.Call(context.Background(), a.Addr(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != kqml.Tell {
		t.Fatalf("reply = %s: %s", reply.Performative, kqml.ReasonOf(reply))
	}
	var sr kqml.SQLResult
	if err := reply.DecodeContent(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Rows) != 20 || len(sr.Columns) != 2 {
		t.Errorf("result = %d rows x %d cols", len(sr.Rows), len(sr.Columns))
	}
}

func TestResourceRejectsUnservedClass(t *testing.T) {
	a, _ := newResource(t)
	_, err := a.Run("SELECT * FROM C3")
	if err == nil || !strings.Contains(err.Error(), "not served") {
		t.Errorf("err = %v, want class-not-served", err)
	}
}

func TestResourceRejectsBadSQL(t *testing.T) {
	a, tr := newResource(t)
	msg := kqml.New(kqml.AskAll, "tester", &kqml.SQLQuery{SQL: "SELEC nope"})
	reply, err := tr.Call(context.Background(), a.Addr(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != kqml.Error {
		t.Errorf("reply = %s, want error", reply.Performative)
	}
}

func TestResourceCapabilityRestriction(t *testing.T) {
	// An agent advertising only "select" cannot run a union
	// (the paper's capability-restriction semantics).
	a, _ := newResource(t, func(c *Config) {
		c.Capabilities = []string{ontology.CapSelect}
	})
	if _, err := a.Run("SELECT * FROM C2"); err != nil {
		t.Errorf("plain select should be allowed: %v", err)
	}
	_, err := a.Run("SELECT id FROM C2")
	if err == nil || !strings.Contains(err.Error(), "capability") {
		t.Errorf("projection beyond select should be rejected, got %v", err)
	}
	_, err = a.Run("SELECT * FROM C2 UNION SELECT * FROM C2")
	if err == nil {
		t.Error("union beyond select should be rejected")
	}
}

func TestResourceAdvertisement(t *testing.T) {
	a, _ := newResource(t, func(c *Config) {
		c.Fragment.Constraints = constraint.MustParse("C2.a between 0 and 100")
		c.EstimatedResponseSec = 5
	})
	ad := a.Advertisement()
	if err := ad.Validate(); err != nil {
		t.Fatal(err)
	}
	if ad.Type != ontology.TypeResource || ad.Address != a.Addr() {
		t.Errorf("ad identity = %+v", ad)
	}
	if ad.Properties.EstimatedResponseSec != 5 {
		t.Error("estimated response time not advertised")
	}
	if ad.Content[0].Constraints.Len() != 1 {
		t.Error("constraints not advertised")
	}
}

func TestResourceRequiresTablesForClasses(t *testing.T) {
	tr := transport.NewInProc()
	db := relational.NewDatabase()
	_, err := New(Config{
		Name: "x", Transport: tr, DB: db,
		Fragment: ontology.Fragment{Ontology: "generic", Classes: []string{"C9"}},
	})
	if err == nil {
		t.Error("advertising a class without a table should fail")
	}
}

func TestResourceQueryDelay(t *testing.T) {
	a, _ := newResource(t, func(c *Config) {
		c.QueryDelayPerRow = 100 * time.Microsecond // 20 rows -> ≥2ms
	})
	start := time.Now()
	if _, err := a.Run("SELECT * FROM C2"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Errorf("query delay not applied: %v", elapsed)
	}
}

func TestResourceUnsupportedPerformative(t *testing.T) {
	a, tr := newResource(t)
	for _, msg := range []*kqml.Message{
		kqml.New(kqml.Update, "x", &kqml.SQLQuery{SQL: "s"}),
		// Subscriptions are cancelled with unsubscribe; an unadvertise
		// carrying a subscription ID is not a cancellation.
		kqml.New(kqml.Unadvertise, "x", &kqml.SorryContent{Reason: "sub-1"}),
	} {
		reply, err := tr.Call(context.Background(), a.Addr(), msg)
		if err != nil {
			t.Fatal(err)
		}
		want := "resource agent does not handle " + string(msg.Performative)
		if reply.Performative != kqml.Sorry || kqml.ReasonOf(reply) != want {
			t.Errorf("%s reply = %s %q, want sorry %q", msg.Performative, reply.Performative, kqml.ReasonOf(reply), want)
		}
	}
}

func TestResourceAggregationCapability(t *testing.T) {
	// The paper's Section 1 example: myRelationalQueryAgent does
	// relational query processing but no statistical aggregation.
	a, _ := newResource(t)
	_, err := a.Run("SELECT COUNT(*) FROM C2")
	if err == nil || !strings.Contains(err.Error(), "capability") {
		t.Errorf("aggregation without the capability should be rejected, got %v", err)
	}
	// An agent advertising full query processing can aggregate.
	full, _ := newResource(t, func(c *Config) {
		c.Name = "full-qp"
		c.Capabilities = []string{ontology.CapQueryProcessing}
	})
	res, err := full.Run("SELECT COUNT(*) FROM C2")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].Equal(constraint.Num(20)) {
		t.Errorf("COUNT(*) = %v, want 20", res.Rows[0][0])
	}
	// Advertising the aggregation capability directly also works.
	agg, _ := newResource(t, func(c *Config) {
		c.Name = "agg-ra"
		c.Capabilities = []string{ontology.CapRelationalQueryProcessing, ontology.CapAggregation}
	})
	if _, err := agg.Run("SELECT AVG(a) FROM C2"); err != nil {
		t.Fatal(err)
	}
}

func TestAggregationCapabilityNameInSync(t *testing.T) {
	// sqlparse reports the requirement by name; the ontology constant
	// must match it exactly.
	caps := sqlparse.MustParse("SELECT COUNT(*) FROM C2").Capabilities()
	found := false
	for _, c := range caps {
		if c == ontology.CapAggregation {
			found = true
		}
	}
	if !found {
		t.Errorf("sqlparse capability names %v do not include ontology.CapAggregation %q",
			caps, ontology.CapAggregation)
	}
}
