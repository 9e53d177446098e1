package constraint

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// randRegion draws a region over fields "c.a" and "c.b" mixing closed,
// open and half-bounded intervals, Allowed sets and missing atoms.
func randRegion(rng *rand.Rand) *Set {
	s := NewSet()
	for _, f := range []string{"c.a", "c.b"} {
		lo := float64(rng.Intn(1000))
		hi := lo + float64(rng.Intn(60))
		var a Atom
		switch rng.Intn(8) {
		case 0:
			continue
		case 1:
			a = Atom{Field: f, Interval: AtLeast(lo)}
		case 2:
			a = Atom{Field: f, Interval: LessThan(hi)}
		case 3:
			a = Atom{Field: f, Interval: Interval{HasLo: true, Lo: lo, LoOpen: true, HasHi: true, Hi: hi, HiOpen: rng.Intn(2) == 0}}
		case 4:
			a = Atom{Field: f, Allowed: []Value{Num(lo), Str("x")}}
		case 5:
			a = Atom{Field: f, Interval: Unbounded}
		default:
			a = Atom{Field: f, Interval: NewRange(lo, hi)}
		}
		s.Add(a)
	}
	return s
}

// narrowRegion draws a short interval on c.a over a wide domain, or now
// and then a long one, so the index spans many blocks and the running
// maximum, not each block's own, is what lets a probe skip ahead.
func narrowRegion(rng *rand.Rand) *Set {
	lo := float64(rng.Intn(100_000))
	width := float64(rng.Intn(50))
	if rng.Intn(100) == 0 {
		width = float64(rng.Intn(40_000))
	}
	return NewSet(Atom{Field: "c.a", Interval: NewRange(lo, lo+width)})
}

// TestIndexProbeMatchesLinearScan is the index's oracle: after random
// inserts and removes of one- and multi-region members, every probe
// returns each member at most once and never misses one a linear
// Overlaps scan admits. It runs over a mixed population (open, half-
// bounded, Allowed and missing atoms) and over a large narrow one.
func TestIndexProbeMatchesLinearScan(t *testing.T) {
	for _, pop := range []struct {
		name   string
		ids    int
		region func(*rand.Rand) *Set
	}{
		{"mixed", 600, randRegion},
		{"narrow", 3000, narrowRegion},
	} {
		rng := rand.New(rand.NewSource(7))
		x := NewIndex[string]()
		live := map[string][]*Set{}
		for step := 0; step < 6*pop.ids; step++ {
			id := fmt.Sprintf("m%04d", rng.Intn(pop.ids))
			switch {
			case rng.Intn(4) == 0:
				if got := x.Remove(id); got != (live[id] != nil) {
					t.Fatalf("%s step %d: Remove(%s) = %v", pop.name, step, id, got)
				}
				delete(live, id)
			default:
				r := pop.region(rng)
				if rng.Intn(10) == 0 {
					r = nil
				}
				x.Insert(id, id, r)
				live[id] = append(live[id], r)
			}
			if step%30 != 0 {
				continue
			}
			if x.Len() != len(live) {
				t.Fatalf("%s step %d: Len = %d, want %d", pop.name, step, x.Len(), len(live))
			}
			q := pop.region(rng)
			got, _ := x.Probe(q, nil)
			seen := map[string]bool{}
			for _, id := range got {
				if seen[id] {
					t.Fatalf("%s step %d: probe returned %s twice", pop.name, step, id)
				}
				seen[id] = true
			}
			for id, regions := range live {
				for _, r := range regions {
					if r.Overlaps(q) && !seen[id] {
						t.Fatalf("%s step %d: probe %s missed %s (region %s)", pop.name, step, q, id, r)
					}
				}
			}
		}
	}
}

// TestIndexProbeIsNarrow checks the index does the work it exists for: a
// narrow probe over many narrow intervals visits a handful of entries,
// not all of them, and stays narrow after heavy churn.
func TestIndexProbeIsNarrow(t *testing.T) {
	x := NewIndex[int]()
	const n = 10_000
	for i := 0; i < n; i++ {
		lo := float64(i * 100)
		x.Insert(fmt.Sprint(i), i, NewSet(Atom{Field: "c.a", Interval: NewRange(lo, lo+150)}))
	}
	for i := 0; i < n; i += 2 {
		x.Remove(fmt.Sprint(i))
	}
	got, visited := x.Probe(NewSet(Atom{Field: "c.a", Interval: NewRange(500_000, 500_010)}), nil)
	sort.Ints(got)
	if len(got) != 1 || got[0] != 4999 {
		t.Fatalf("probe = %v, want [4999]", got)
	}
	if visited > 8 {
		t.Fatalf("probe visited %d entries, want a handful", visited)
	}
	// A member unbounded on the field is always a candidate.
	x.Insert("wide", -1, NewSet(Atom{Field: "c.b", Interval: NewRange(0, 1)}))
	got, _ = x.Probe(NewSet(Atom{Field: "c.a", Interval: NewRange(500_000, 500_010)}), nil)
	sort.Ints(got)
	if len(got) != 2 || got[0] != -1 {
		t.Fatalf("probe = %v, want the unbounded member too", got)
	}
}
