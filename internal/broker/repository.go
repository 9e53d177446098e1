// Package broker implements the InfoSleuth broker agent: a repository of
// agent advertisements, a matchmaker combining syntactic and semantic
// reasoning (Section 2), and the peer-to-peer multibroker protocol of
// Sections 3-4 — redundant advertising, agent liveness pings, and
// inter-broker search with hop counts, follow options and visited lists.
package broker

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"infosleuth/internal/constraint"
	"infosleuth/internal/ontology"
)

// classIndexes holds one ontology's constraint-region indexes, one per
// served class name (compared exactly, as ontology.Match compares
// classes). An advertisement serving the class through any of its
// fragments in the ontology is filed there under the regions of all
// those fragments, because ontology.Match admits it when any fragment of
// the ontology overlaps the query's constraints, whichever fragment
// serves the class. Every fragment serves some class (Validate), so the
// members of an ontology's indexes are exactly the ads supporting it.
type classIndexes map[string]*constraint.Index[*ontology.Advertisement]

// Repository stores advertisements with secondary indexes on agent type,
// supported ontology and content language, plus one constraint-region
// index per (ontology, served class), so matchmaking runs the full
// semantic match only on the advertisements the indexes admit. It is safe
// for concurrent use: one RWMutex guards the maps and indexes, and an
// atomic generation counter lets the match cache check freshness without
// taking it.
//
// Stored advertisements are immutable snapshots: Put clones its argument
// once, and nothing mutates an entry afterwards — an update Puts a fresh
// clone under the same key. Internal readers (candidates, snapshot) hand
// out the stored pointers directly under a read-only contract, which is
// what lets the matchmaking hot path skip per-match cloning; the exported
// Get/All still clone for callers outside the package's control.
type Repository struct {
	mu  sync.RWMutex
	ads map[string]*ontology.Advertisement // by lower-cased agent name

	// gen counts mutations (Put/Remove). The match cache stamps results
	// with the generation they were computed at.
	gen atomic.Uint64

	// Secondary indexes: value → set of agent keys, and per lower-cased
	// ontology its class/region indexes.
	byType     map[ontology.AgentType]map[string]bool
	byOntology map[string]classIndexes
	byLanguage map[string]map[string]bool

	// indexed can be disabled to measure the index benefit
	// (BenchmarkRepositoryIndexes) and to serve as the evaluate-all
	// oracle in tests.
	indexed bool

	// snapshot memo: the sorted snapshot is recomputed only when the
	// generation moved (the DatalogMatcher calls snapshot per operation,
	// and used to pay a full sort every time even when nothing changed).
	snapMu  sync.Mutex
	snapGen uint64
	snap    []*ontology.Advertisement // nil = no memo
}

// NewRepository returns an empty, indexed repository.
func NewRepository() *Repository {
	return &Repository{
		ads:        make(map[string]*ontology.Advertisement),
		byType:     make(map[ontology.AgentType]map[string]bool),
		byOntology: make(map[string]classIndexes),
		byLanguage: make(map[string]map[string]bool),
		indexed:    true,
	}
}

// NewUnindexedRepository returns a repository that always scans all
// advertisements: the index-ablation benchmark's baseline and the
// evaluate-all oracle the region-index tests compare against.
func NewUnindexedRepository() *Repository {
	r := NewRepository()
	r.indexed = false
	return r
}

func adKey(name string) string { return strings.ToLower(name) }

// Put validates and stores an advertisement, replacing any previous one for
// the same agent (the paper: "when an agent's set of available services
// changes, the agent may update its advertisement").
func (r *Repository) Put(ad *ontology.Advertisement) error {
	if err := ad.Validate(); err != nil {
		return err
	}
	for _, f := range ad.Content {
		if f.Constraints.Unsatisfiable() {
			return fmt.Errorf("broker: advertisement for %q carries unsatisfiable constraints: %s", ad.Name, f.Constraints)
		}
	}
	cp := ad.Clone()
	key := adKey(cp.Name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.ads[key]; ok {
		r.unindexLocked(key)
	}
	r.ads[key] = cp
	r.indexLocked(key, cp)
	r.gen.Add(1)
	return nil
}

// Remove deletes an agent's advertisement; it reports whether one existed.
func (r *Repository) Remove(name string) bool {
	key := adKey(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.ads[key]; !ok {
		return false
	}
	r.unindexLocked(key)
	delete(r.ads, key)
	r.gen.Add(1)
	return true
}

// Generation returns the repository's mutation counter. It increments
// before Put/Remove return and never decreases, so any result computed
// from a generation read before a mutation cannot be served as current
// afterwards — the match cache's invalidation signal.
func (r *Repository) Generation() uint64 { return r.gen.Load() }

// Get returns a copy of an agent's advertisement.
func (r *Repository) Get(name string) (*ontology.Advertisement, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ad, ok := r.ads[adKey(name)]
	if !ok {
		return nil, false
	}
	return ad.Clone(), true
}

// Contains reports whether the agent is advertised.
func (r *Repository) Contains(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.ads[adKey(name)]
	return ok
}

// Len returns the number of stored advertisements.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ads)
}

// LenNonBroker returns the number of stored non-broker advertisements —
// the size of the space the matchmaker reasons over for service queries
// (peer-broker entries are routing state, not candidates).
func (r *Repository) LenNonBroker() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ads) - len(r.byType[ontology.TypeBroker])
}

// Names returns the advertised agent names, sorted. It reads through the
// memoized snapshot, so repeated calls between mutations pay no sort.
func (r *Repository) Names() []string {
	ads := r.snapshot()
	out := make([]string, len(ads))
	for i, ad := range ads {
		out[i] = ad.Name
	}
	return out
}

// All returns copies of every advertisement, sorted by name.
func (r *Repository) All() []*ontology.Advertisement {
	ads := r.snapshot()
	out := make([]*ontology.Advertisement, len(ads))
	for i, ad := range ads {
		out[i] = ad.Clone()
	}
	return out
}

func (r *Repository) indexLocked(key string, ad *ontology.Advertisement) {
	addTo(r.byType, ad.Type, key)
	for i := range ad.Content {
		f := &ad.Content[i]
		ont := strings.ToLower(f.Ontology)
		classes := r.byOntology[ont]
		if classes == nil {
			classes = make(classIndexes)
			r.byOntology[ont] = classes
		}
		for c, class := range f.Classes {
			if servedBefore(ad, i, c) {
				continue
			}
			idx := classes[class]
			if idx == nil {
				idx = constraint.NewIndex[*ontology.Advertisement]()
				classes[class] = idx
			}
			for j := range ad.Content {
				if strings.EqualFold(ad.Content[j].Ontology, f.Ontology) {
					idx.Insert(key, ad, ad.Content[j].Constraints)
				}
			}
		}
	}
	for _, l := range ad.ContentLanguages {
		addTo(r.byLanguage, strings.ToLower(l), key)
	}
}

func addTo[K comparable](m map[K]map[string]bool, val K, key string) {
	set, ok := m[val]
	if !ok {
		set = make(map[string]bool)
		m[val] = set
	}
	set[key] = true
}

// servedBefore reports whether fragment i's c-th class was already met
// earlier in the advertisement's fragments of the same ontology, so it is
// filed once.
func servedBefore(ad *ontology.Advertisement, i, c int) bool {
	f := &ad.Content[i]
	class := f.Classes[c]
	for _, prev := range f.Classes[:c] {
		if prev == class {
			return true
		}
	}
	for j := 0; j < i; j++ {
		if strings.EqualFold(ad.Content[j].Ontology, f.Ontology) && ad.Content[j].HasClass(class) {
			return true
		}
	}
	return false
}

func (r *Repository) unindexLocked(key string) {
	ad := r.ads[key]
	if ad == nil {
		return
	}
	delete(r.byType[ad.Type], key)
	for i := range ad.Content {
		f := &ad.Content[i]
		ont := strings.ToLower(f.Ontology)
		classes := r.byOntology[ont]
		for _, class := range f.Classes {
			if idx := classes[class]; idx != nil && idx.Remove(key) && idx.Len() == 0 {
				delete(classes, class)
			}
		}
		if classes != nil && len(classes) == 0 {
			delete(r.byOntology, ont)
		}
	}
	for _, l := range ad.ContentLanguages {
		delete(r.byLanguage[strings.ToLower(l)], key)
	}
}

// agentTypes returns the agent types with at least one advertisement,
// sorted.
func (r *Repository) agentTypes() []ontology.AgentType {
	r.mu.RLock()
	var out []ontology.AgentType
	for t, set := range r.byType {
		if len(set) > 0 {
			out = append(out, t)
		}
	}
	r.mu.RUnlock()
	slices.Sort(out)
	return out
}

// matchCandidates returns the advertisements worth running
// ontology.Match on. A query naming an ontology and a class with a
// bounded numeric constraint probes the region indexes of its first
// class and every served subclass of it (ontology.Match admits an
// advertisement serving a subclass), on one bounded field of the query's
// constraints; any ad the match accepts serves that class and overlaps
// the query, so it is among the probed. Other queries take the coarse
// type/ontology/language path of candidates.
func (r *Repository) matchCandidates(w *ontology.World, q *ontology.Query) []*ontology.Advertisement {
	if !r.indexed || q.Ontology == "" || len(q.Classes) == 0 || !q.Constraints.HasNumericBound() {
		return r.candidates(q)
	}
	class := q.Classes[0]
	ont := w.Ontology(q.Ontology)
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*ontology.Advertisement
	visited, probed := 0, 0
	for served, idx := range r.byOntology[strings.ToLower(q.Ontology)] {
		if served != class && (ont == nil || !ont.IsSubclassOf(served, class)) {
			continue
		}
		var n int
		out, n = idx.Probe(q.Constraints, out)
		visited += n
		probed++
	}
	mRegionProbeVisits.Add(int64(visited))
	if probed > 1 {
		// An ad serving the class and a subclass sits in both indexes.
		out = dedupeAds(out)
	}
	return out
}

// dedupeAds drops repeated advertisements, keeping first occurrences.
func dedupeAds(ads []*ontology.Advertisement) []*ontology.Advertisement {
	seen := make(map[*ontology.Advertisement]bool, len(ads))
	out := ads[:0]
	for _, ad := range ads {
		if !seen[ad] {
			seen[ad] = true
			out = append(out, ad)
		}
	}
	return out
}

// candidates returns the advertisement pointers a query could match,
// narrowed by the type, ontology and language indexes when possible — the
// coarse set the provenance walk explains, rejected ads included. It
// intersects the type and language sets, keeping the ads that support the
// query's ontology; a query constraining only the ontology takes its
// class indexes' members. The returned ads are the repository's immutable
// snapshots: callers must not mutate them. The result order is
// unspecified — every caller (the matchers, the provenance re-walk)
// re-orders deterministically, so candidates does not pay for a sort of
// its own.
//
// The output slice is sized by the post-intersection estimate under an
// independence assumption (|A∩B| ≈ |A|·|B|/N), not by the smallest index
// set — with several index sets the intersection is usually far smaller
// than any one of them.
func (r *Repository) candidates(q *ontology.Query) []*ontology.Advertisement {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.indexed {
		return r.unsortedLocked()
	}
	var sets []map[string]bool
	if q.Type != ontology.TypeAny {
		sets = append(sets, r.byType[q.Type])
	}
	if q.ContentLanguage != "" {
		sets = append(sets, r.byLanguage[strings.ToLower(q.ContentLanguage)])
	}
	if q.Ontology != "" {
		classes := r.byOntology[strings.ToLower(q.Ontology)]
		if len(classes) == 0 {
			return nil
		}
		if len(sets) == 0 {
			// The ontology's ads are its class indexes' members.
			var out []*ontology.Advertisement
			for _, idx := range classes {
				out, _ = idx.Probe(nil, out)
			}
			if len(classes) > 1 {
				out = dedupeAds(out)
			}
			return out
		}
	}
	if len(sets) == 0 {
		return r.unsortedLocked()
	}
	// Intersect starting from the smallest set.
	sort.Slice(sets, func(i, j int) bool { return len(sets[i]) < len(sets[j]) })
	out := make([]*ontology.Advertisement, 0, intersectionEstimate(sets, len(r.ads)))
outer:
	for key := range sets[0] {
		for _, o := range sets[1:] {
			if !o[key] {
				continue outer
			}
		}
		if ad := r.ads[key]; q.Ontology == "" || ad.SupportsOntology(q.Ontology) {
			out = append(out, ad)
		}
	}
	return out
}

// intersectionEstimate sizes the candidate slice for a multi-set
// intersection: scale the smallest set by each further set's selectivity
// (independence assumption), floored so tiny estimates don't cause
// append-growth churn and capped at the smallest set (the true upper
// bound).
func intersectionEstimate(sets []map[string]bool, total int) int {
	est := len(sets[0])
	if total > 0 {
		for _, o := range sets[1:] {
			est = est * len(o) / total
		}
	}
	if est < 8 {
		est = 8
	}
	if est > len(sets[0]) {
		est = len(sets[0])
	}
	return est
}

// snapshot returns every stored advertisement as shared immutable
// snapshots, sorted by name. Package-internal: callers must not mutate
// the ads or the slice (the DatalogMatcher's fact-assertion pass,
// Names/All). The sorted slice is memoized per generation: repeated calls
// between mutations return the same slice without re-collecting or
// re-sorting.
func (r *Repository) snapshot() []*ontology.Advertisement {
	gen := r.Generation()
	r.snapMu.Lock()
	if r.snap != nil && r.snapGen == gen {
		out := r.snap
		r.snapMu.Unlock()
		return out
	}
	r.snapMu.Unlock()

	// Rebuild under the read lock: the collected view and the
	// generation it is stamped with are one consistent cut.
	r.mu.RLock()
	gen = r.gen.Load()
	out := r.unsortedLocked()
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })

	r.snapMu.Lock()
	// Another goroutine may have memoized a newer cut meanwhile; keep
	// whichever is stamped later.
	if r.snap == nil || gen >= r.snapGen {
		r.snapGen, r.snap = gen, out
	}
	r.snapMu.Unlock()
	return out
}

func (r *Repository) unsortedLocked() []*ontology.Advertisement {
	out := make([]*ontology.Advertisement, 0, len(r.ads))
	for _, ad := range r.ads {
		out = append(out, ad)
	}
	return out
}
