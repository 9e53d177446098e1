package broadcast

import (
	"fmt"
	"math/rand"
	"testing"

	"infosleuth/internal/constraint"
)

// randSubRegion draws a subscription or change region over c2's columns:
// closed, open and half-bounded intervals, points, Allowed sets, missing
// atoms, or nil (the whole class).
func randSubRegion(rng *rand.Rand) *constraint.Set {
	if rng.Intn(10) == 0 {
		return nil
	}
	s := constraint.NewSet()
	for _, f := range []string{"c2.a", "c2.b"} {
		lo := float64(rng.Intn(500))
		hi := lo + float64(rng.Intn(30))
		switch rng.Intn(7) {
		case 0, 1:
		case 2:
			s.Add(constraint.Atom{Field: f, Interval: constraint.GreaterThan(lo)})
		case 3:
			s.Add(constraint.Atom{Field: f, Interval: constraint.LessThan(hi)})
		case 4:
			s.Add(constraint.Atom{Field: f, Allowed: []constraint.Value{constraint.Num(lo), constraint.Str("k")}})
		case 5:
			s.Add(constraint.Atom{Field: f, Interval: constraint.Exactly(lo)})
		default:
			s.Add(constraint.Atom{Field: f, Interval: constraint.NewRange(lo, hi)})
		}
	}
	return s
}

// TestPublishProbeMatchesLinearOverlaps is the hub index's oracle: over
// random subscriptions with churn, every Publish enqueues exactly the
// subscriptions a linear Set.Overlaps scan of the class admits, and
// skips the rest of the class.
func TestPublishProbeMatchesLinearOverlaps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := New(Options{})
	defer h.Close()
	type model struct {
		sub    *Sub
		class  string
		region *constraint.Set
	}
	live := map[string]model{}
	classes := []string{"c1", "c2"}
	for step := 0; step < 4000; step++ {
		id := fmt.Sprintf("s%03d", rng.Intn(300))
		if m, ok := live[id]; ok && rng.Intn(3) == 0 {
			m.sub.Close()
			delete(live, id)
		} else if !ok {
			class, region := classes[rng.Intn(2)], randSubRegion(rng)
			live[id] = model{h.Subscribe(id, []string{class}, region, func(Batch) {}), class, region}
		}
		ev := Event{Class: classes[rng.Intn(2)], Region: randSubRegion(rng), Rows: 1}
		wantMatched, wantSkipped := 0, 0
		for _, m := range live {
			if m.class != ev.Class {
				continue
			}
			if m.region.Overlaps(ev.Region) {
				wantMatched++
			} else {
				wantSkipped++
			}
		}
		matched, skipped := h.Publish(ev)
		if matched != wantMatched || skipped != wantSkipped {
			t.Fatalf("step %d: Publish(%s %s) = %d/%d, linear scan %d/%d",
				step, ev.Class, ev.Region, matched, skipped, wantMatched, wantSkipped)
		}
	}
}

// TestPublishVisitGuard pins the hub index's pruning: with 10k narrow
// standing queries on one class, routing a point change reads at most a
// small constant of index entries, not the whole class.
func TestPublishVisitGuard(t *testing.T) {
	h := New(Options{})
	defer h.Close()
	rng := rand.New(rand.NewSource(3))
	for j := 0; j < 10_000; j++ {
		lo := float64(rng.Intn(1_000_000 - 150))
		h.Subscribe(fmt.Sprint(j), []string{"c2"}, rangeSet("c2.a", lo, lo+150), func(Batch) {})
	}
	const events = 200
	before := h.Stats().ProbeVisits
	for i := 0; i < events; i++ {
		a := float64(rng.Intn(1_000_000))
		region := constraint.NewSet(
			constraint.Atom{Field: "c2.id", Allowed: []constraint.Value{constraint.Str(fmt.Sprint("row-", i))}},
			constraint.Atom{Field: "c2.a", Interval: constraint.Exactly(a)})
		h.Publish(Event{Class: "c2", Region: region, Rows: 1})
	}
	if per := float64(h.Stats().ProbeVisits-before) / events; per > 64 {
		t.Fatalf("Publish visited %.1f index entries per event over 10k subscriptions, want <= 64", per)
	}
}
