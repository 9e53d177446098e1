package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"infosleuth/internal/mrq"
)

// specDoc is the part of spec.json the tests hold against the program.
type specDoc struct {
	Workloads map[string]struct {
		Rate   float64 `json:"open_loop_rate_ops_s"`
		Setups int     `json:"setups"`
		Warmup int     `json:"warmup"`
	} `json:"workloads"`
	EndToEnd map[string]any `json:"end_to_end"`
	PerLayer map[string]any `json:"per_layer"`
}

func readSpec(t *testing.T) specDoc {
	t.Helper()
	raw, err := os.ReadFile("spec.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc specDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSpecMatchesWorkloads checks spec.json documents the rate, set-ups
// and warm-up each workload actually runs with.
func TestSpecMatchesWorkloads(t *testing.T) {
	doc := readSpec(t)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("spec.json documents %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for name, w := range workloads {
		d, ok := doc.Workloads[name]
		if !ok || d.Rate != w.rate || d.Setups != w.setups || d.Warmup != w.warmup {
			t.Errorf("%s: spec.json says rate=%g setups=%d warmup=%d (present %v), the program uses %g, %d, %d",
				name, d.Rate, d.Setups, d.Warmup, ok, w.rate, w.setups, w.warmup)
		}
	}
}

// TestFederatedRewritesFire checks the federated mix exercises the
// planner as the workload claims: every join Submit is answered through a
// semi-join and every aggregate through partial-aggregate pushdown.
func TestFederatedRewritesFire(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a community over loopback TCP")
	}
	build, err := workloads["federated"].prepare(9, 2, newTracer(false))
	if err != nil {
		t.Fatal(err)
	}
	r, err := build()
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	ctx := context.Background()
	before := mrq.SnapshotPlanStats()
	var joins, aggs int64
	for i := 0; i < 80; i++ {
		if res := r.op(ctx, i, time.Now(), true); res.failed {
			t.Fatalf("op %d failed", i)
		}
		switch _, shape := genFederatedSQL(9, i); shape {
		case fedJoin:
			joins++
		case fedAggregate:
			aggs++
		}
	}
	if wrong := r.verify(); wrong != 0 {
		t.Errorf("%d wrong answers", wrong)
	}
	after := mrq.SnapshotPlanStats()
	if joins == 0 || aggs == 0 {
		t.Fatalf("mix has %d joins and %d aggregates", joins, aggs)
	}
	if got := after.SemiJoins - before.SemiJoins; got != joins {
		t.Errorf("%d semi-joins for %d join Submits", got, joins)
	}
	if got := after.AggPushdowns - before.AggPushdowns; got != aggs {
		t.Errorf("%d partial-aggregate pushdowns for %d aggregate Submits", got, aggs)
	}
	if got := after.Fallbacks - before.Fallbacks; got != 0 {
		t.Errorf("%d planner fallbacks", got)
	}
}

// TestResultMatchesBenchmarkJSON runs a short federated benchmark both
// ways and checks the result line carries exactly the metrics, with the
// units, that ../BENCHMARK.json declares, that every answer was correct,
// and that spec.json documents every metric.
func TestResultMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a community over loopback TCP")
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	doc := readSpec(t)
	for _, tc := range []struct {
		trace    bool
		declared []struct{ Name, Unit string }
		doc      map[string]any
	}{
		{false, bench.EndToEnd, doc.EndToEnd},
		{true, bench.PerLayer, doc.PerLayer},
	} {
		rep, err := measure(context.Background(), config{
			workload: workloads["federated"], rate: 100, seed: 5, seconds: 1, trace: tc.trace, callers: 2,
		})
		if err != nil {
			t.Fatalf("trace=%v: %v", tc.trace, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("trace=%v: correct=%v failed=%d attempted=%d", tc.trace, rep.Correct, rep.Failed, rep.Attempted)
		}
		if len(rep.Metrics) != len(tc.declared) {
			t.Errorf("trace=%v: %d metrics, BENCHMARK.json declares %d", tc.trace, len(rep.Metrics), len(tc.declared))
		}
		for _, d := range tc.declared {
			m, ok := rep.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("trace=%v: %s reported as %+v (present %v), declared in %s", tc.trace, d.Name, m, ok, d.Unit)
			}
			if _, ok := tc.doc[d.Name]; !ok {
				t.Errorf("spec.json does not document %s", d.Name)
			}
		}
	}
}
