package broker

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"infosleuth/internal/constraint"
	"infosleuth/internal/ontology"
)

// randRegion draws a constraint set over a few generic-class fields:
// closed, open, half-bounded and unbounded intervals, Allowed sets, and
// missing atoms.
func randRegion(rng *rand.Rand) *constraint.Set {
	s := constraint.NewSet()
	for _, f := range []string{"C2.a", "C2.b", "C1.a"} {
		lo := float64(rng.Intn(200))
		hi := lo + float64(rng.Intn(40))
		var iv constraint.Interval
		switch rng.Intn(9) {
		case 0, 1, 2:
			continue
		case 3:
			iv = constraint.AtLeast(lo)
		case 4:
			iv = constraint.LessThan(hi + 1)
		case 5:
			iv = constraint.Interval{HasLo: true, Lo: lo, LoOpen: true, HasHi: true, Hi: hi + 1, HiOpen: rng.Intn(2) == 0}
		case 6:
			s.Add(constraint.Atom{Field: f, Allowed: []constraint.Value{constraint.Num(lo), constraint.Str("x")}})
			continue
		case 7:
			iv = constraint.Unbounded
		default:
			iv = constraint.NewRange(lo, hi)
		}
		s.Add(constraint.Atom{Field: f, Interval: iv})
	}
	return s
}

var (
	regionOntologies = []string{"generic", "Generic", "healthcare"}
	regionClasses    = []string{"C1", "C2", "C2a", "C2b", "C3", "X9"}
)

// randRegionAd draws an advertisement of one to three fragments whose
// ontologies differ in case and whose classes and constraints sit on
// different fragments.
func randRegionAd(rng *rand.Rand, name string) *ontology.Advertisement {
	ad := resourceAd(name, "C1")
	if rng.Intn(5) == 0 {
		ad.Type = ontology.TypeQuery
	}
	ad.Content = nil
	for n := 1 + rng.Intn(3); n > 0; n-- {
		f := ontology.Fragment{Ontology: regionOntologies[rng.Intn(len(regionOntologies))]}
		for k := rng.Intn(3); k > 0; k-- {
			f.Classes = append(f.Classes, regionClasses[rng.Intn(len(regionClasses))])
		}
		if rng.Intn(4) > 0 {
			f.Constraints = randRegion(rng)
		}
		ad.Content = append(ad.Content, f)
	}
	return ad
}

func randRegionQuery(rng *rand.Rand) *ontology.Query {
	q := &ontology.Query{Ontology: regionOntologies[rng.Intn(len(regionOntologies))]}
	if rng.Intn(3) == 0 {
		q.Type = ontology.TypeResource
	}
	for k := rng.Intn(3); k > 0; k-- {
		q.Classes = append(q.Classes, regionClasses[rng.Intn(len(regionClasses))])
	}
	if rng.Intn(6) > 0 {
		q.Constraints = randRegion(rng)
	}
	return q
}

// TestRegionIndexMatchesUnindexed is the region index's oracle: a seeded
// stream of random Puts, re-Puts and Removes goes to an unindexed
// repository and to an indexed one, and every random query must return
// the same ranked matches from both, directly and through the match
// cache.
func TestRegionIndexMatchesUnindexed(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		rng := rand.New(rand.NewSource(seed))
		w := ontology.NewWorld(ontology.Generic(), ontology.Healthcare())
		oracle, r := NewUnindexedRepository(), NewRepository()
		direct := &DirectMatcher{World: w}
		cached := NewCachedMatcher(&DirectMatcher{World: w}, 0)
		for step := 0; step < 1500; step++ {
			name := fmt.Sprintf("ad-%03d", rng.Intn(250))
			if rng.Intn(4) == 0 {
				if got, want := r.Remove(name), oracle.Remove(name); got != want {
					t.Fatalf("seed %d step %d: Remove(%s) = %v, oracle %v", seed, step, name, got, want)
				}
			} else {
				ad := randRegionAd(rng, name)
				if err, wantErr := r.Put(ad), oracle.Put(ad); (err == nil) != (wantErr == nil) {
					t.Fatalf("seed %d step %d: Put error %v, oracle %v", seed, step, err, wantErr)
				}
			}
			q := randRegionQuery(rng)
			want, wantErr := direct.Match(oracle, q)
			for _, m := range []Matcher{direct, cached} {
				got, err := m.Match(r, q)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("seed %d step %d: error %v, oracle %v", seed, step, err, wantErr)
				}
				if !reflect.DeepEqual(namesOf(got), namesOf(want)) {
					t.Fatalf("seed %d step %d %T: query %s\n got %v\nwant %v",
						seed, step, m, q, namesOf(got), namesOf(want))
				}
			}
		}
	}
}

// TestRegionIndexCandidateGuard pins the index's pruning: at 10k ads of
// narrow ranges, a narrow class query hands at most a small constant of
// candidates to ontology.Match, and so does a superclass query whose ads
// are split across two subclass indexes.
func TestRegionIndexCandidateGuard(t *testing.T) {
	const n = 10_000
	w := ontology.NewWorld(ontology.Generic())
	classes := []string{"C1", "C2a", "C2b", "C3"}
	field := map[string]string{"C1": "C1.a", "C2a": "C2.a", "C2b": "C2.a", "C3": "C3.a"}
	r := NewRepository()
	for i := 0; i < n; i++ {
		class := classes[i%len(classes)]
		lo := i * 100
		ad := resourceAd(fmt.Sprintf("ad-%05d", i), class)
		ad.Content[0].Constraints = constraint.MustParse(fmt.Sprintf("%s between %d and %d", field[class], lo, lo+500))
		if err := r.Put(ad); err != nil {
			t.Fatal(err)
		}
	}
	for _, class := range []string{"C1", "C2"} {
		q := &ontology.Query{Type: ontology.TypeResource, Ontology: "generic", Classes: []string{class},
			Constraints: constraint.MustParse(fmt.Sprintf("%s.a between 500000 and 500300", class))}
		cands := r.matchCandidates(w, q)
		if len(cands) == 0 || len(cands) > 64 {
			t.Fatalf("class %s: %d candidates, want 1..64", class, len(cands))
		}
		matches, err := (&DirectMatcher{World: w}).Match(r, q)
		if err != nil || len(matches) == 0 {
			t.Fatalf("class %s: %d matches, err %v", class, len(matches), err)
		}
	}
}

// TestRegionIndexConcurrentMutation runs region searches against Puts and
// Removes from other goroutines: every search must still return exactly
// the never-mutated ads that match, plus only matching churned ones. Run
// it under -race.
func TestRegionIndexConcurrentMutation(t *testing.T) {
	w := ontology.NewWorld(ontology.Generic())
	rangeAd := func(name string, lo int) *ontology.Advertisement {
		ad := resourceAd(name, "C2a")
		ad.Content[0].Constraints = constraint.MustParse(fmt.Sprintf("C2.a between %d and %d", lo, lo+30))
		return ad
	}
	r, oracle := NewRepository(), NewUnindexedRepository()
	for i := 0; i < 2000; i++ {
		ad := rangeAd(fmt.Sprintf("stable-%04d", i), i*10)
		if err := r.Put(ad); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Put(ad); err != nil {
			t.Fatal(err)
		}
	}
	dm := &DirectMatcher{World: w}
	done := make(chan struct{})
	var churner, searchers sync.WaitGroup
	churner.Add(1)
	go func() {
		defer churner.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			name := fmt.Sprintf("churn-%03d", i%100)
			if i%3 == 0 {
				r.Remove(name)
			} else if err := r.Put(rangeAd(name, (i*37)%20000)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for s := 0; s < 2; s++ {
		searchers.Add(1)
		go func(s int) {
			defer searchers.Done()
			for k := 0; k < 200; k++ {
				lo := ((k*7 + s*3) % 2000) * 10
				q := &ontology.Query{Ontology: "generic", Classes: []string{"C2"},
					Constraints: constraint.MustParse(fmt.Sprintf("C2.a between %d and %d", lo, lo+15))}
				want, _ := dm.Match(oracle, q)
				got, err := dm.Match(r, q)
				if err != nil {
					t.Error(err)
					return
				}
				var stable []string
				for _, ad := range got {
					if !strings.HasPrefix(ad.Name, "churn-") {
						stable = append(stable, ad.Name)
					} else if ontology.Match(w, ad, q) != ontology.Matched {
						t.Errorf("%s returned but does not match %s", ad.Name, q)
					}
				}
				sort.Strings(stable)
				if !reflect.DeepEqual(stable, namesOf(want)) {
					t.Errorf("%s returned stable %v, want %v", q, stable, namesOf(want))
					return
				}
			}
		}(s)
	}
	searchers.Wait()
	close(done)
	churner.Wait()
}
