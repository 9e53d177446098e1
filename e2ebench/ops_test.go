package main

import (
	"fmt"
	"reflect"
	"testing"
)

// opSequence renders the first n operations each workload's generator
// produces for a seed, plus the generated data the program is loaded with.
func opSequence(seed int64, n int) map[string][]string {
	out := make(map[string][]string)
	for i := 0; i < n; i++ {
		out["lookup"] = append(out["lookup"], fmt.Sprintf("%+v", genLookupOp(seed, i)))
		sql, shape := genFederatedSQL(seed, i)
		out["federated"] = append(out["federated"], fmt.Sprintf("%d %s", shape, sql))
		out["subscribe"] = append(out["subscribe"], fmt.Sprint(genInsert(seed, i)))
	}
	for k := 0; k < n; k++ {
		out["lookup-ads"] = append(out["lookup-ads"], fmt.Sprintf("%+v", lookupBaseAd(seed, k)))
		out["subscribe-windows"] = append(out["subscribe-windows"], fmt.Sprint(genSubWindow(seed, k)))
	}
	frags, _, err := federatedData(seed)
	if err != nil {
		panic(err)
	}
	for _, f := range frags {
		out["federated-data"] = append(out["federated-data"], fmt.Sprint(f.name, f.rows))
	}
	return out
}

func TestSameSeedSameOperations(t *testing.T) {
	a, b := opSequence(7, 2000), opSequence(7, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations from seed 7 differ")
	}
	c := opSequence(8, 2000)
	for name := range a {
		if reflect.DeepEqual(a[name], c[name]) {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", name)
		}
	}
}

// TestOperationMix checks the generated mixes have the shapes the
// workloads promise: ~1 write per 10 searches with every advertise
// withdrawn later, half the searches from the hot set, all four SQL
// shapes, and inserts that overlap ~1.5 standing queries each.
func TestOperationMix(t *testing.T) {
	const n = 20_000
	var searches, adv, unadv int
	advertised := make(map[int]bool)
	for i := 0; i < n; i++ {
		op := genLookupOp(3, i)
		switch op.kind {
		case lookupSearch:
			searches++
		case lookupAdvertise:
			adv++
			advertised[op.lo] = true
		case lookupUnadvertise:
			unadv++
			if !advertised[op.lo] {
				t.Fatalf("op %d withdraws ad %d before it was advertised", i, op.lo)
			}
		}
	}
	if r := float64(searches) / float64(adv+unadv); r < 8 || r > 12 {
		t.Errorf("%.1f searches per write, want ~10", r)
	}
	shapes := make(map[int]int)
	for i := 0; i < n; i++ {
		_, s := genFederatedSQL(3, i)
		shapes[s]++
	}
	if len(shapes) != fedShapes {
		t.Errorf("federated mix has %d shapes, want %d", len(shapes), fedShapes)
	}
	windows, byLo := subscribeWindows(3)
	r := &subscribeRig{windows: windows, byLo: byLo}
	total := 0
	for i := 0; i < n; i++ {
		total += len(r.overlapping(genInsert(3, i)))
	}
	if avg := float64(total) / n; avg < 1 || avg > 2 {
		t.Errorf("an insert overlaps %.2f standing queries on average, want 1-2", avg)
	}
}
