// Package broker implements the InfoSleuth broker agent: a repository of
// agent advertisements, a matchmaker combining syntactic and semantic
// reasoning (Section 2), and the peer-to-peer multibroker protocol of
// Sections 3-4 — redundant advertising, agent liveness pings, and
// inter-broker search with hop counts, follow options and visited lists.
package broker

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"infosleuth/internal/constraint"
	"infosleuth/internal/ontology"
)

// MaxRepositoryShards caps the shard count a repository may be built
// with; requests beyond it are clamped. 1024 shards of a few thousand
// advertisements each covers the million-advertisement target with room
// to spare.
const MaxRepositoryShards = 1024

// maxCandidateWorkers bounds the worker pool that gathers candidates
// across shards in parallel. More workers than cores just adds
// scheduling churn on a read path that is already lock-free across
// shards.
const maxCandidateWorkers = 8

// repoShard is one partition of the repository: its own advertisement
// map, secondary indexes, lock and generation counter, so a mutation
// touches exactly one shard and concurrent searches of different shards
// never contend.
type repoShard struct {
	mu  sync.RWMutex
	ads map[string]*ontology.Advertisement // by lower-cased agent name

	// gen counts this shard's mutations (Put/Remove). The per-shard
	// match cache stamps partial results with the generation they were
	// computed at; a bump invalidates only results drawn from this
	// shard.
	gen atomic.Uint64

	// Secondary indexes: value → set of agent keys, and per lower-cased
	// ontology its class/region indexes.
	byType     map[ontology.AgentType]map[string]bool
	byOntology map[string]classIndexes
	byLanguage map[string]map[string]bool
}

// classIndexes holds one ontology's constraint-region indexes, one per
// served class name (compared exactly, as ontology.Match compares
// classes). An advertisement serving the class through any of its
// fragments in the ontology is filed there under the regions of all
// those fragments, because ontology.Match admits it when any fragment of
// the ontology overlaps the query's constraints, whichever fragment
// serves the class. Every fragment serves some class (Validate), so the
// members of an ontology's indexes are exactly the ads supporting it.
type classIndexes map[string]*constraint.Index[*ontology.Advertisement]

func newRepoShard() *repoShard {
	return &repoShard{
		ads:        make(map[string]*ontology.Advertisement),
		byType:     make(map[ontology.AgentType]map[string]bool),
		byOntology: make(map[string]classIndexes),
		byLanguage: make(map[string]map[string]bool),
	}
}

// Repository stores advertisements with secondary indexes on agent type,
// supported ontology and content language, plus one constraint-region
// index per (ontology, served class), so matchmaking runs the full
// semantic match only on the advertisements the indexes admit. It is safe
// for concurrent use.
//
// The repository is partitioned into shards addressed by the capability
// hash of the advertisement — the FNV-1a hash of its lower-cased agent
// name, the advertisement's stable capability identity. (The ontology
// region cannot participate in shard addressing because Remove/Get/
// Contains look advertisements up by name alone; a name→shard directory
// would reintroduce the global serialization point sharding exists to
// remove. Region locality instead lives in each shard's class/region
// indexes.) Put/Remove/Get touch exactly one shard; Search gathers
// candidates from all shards — in parallel through a bounded worker pool
// when the shard count and GOMAXPROCS warrant it. A single-shard
// repository (the default, and the Section 5 configuration) behaves
// exactly like the historical flat repository, with no dispatch
// overhead.
//
// Stored advertisements are immutable snapshots: Put clones its argument
// once, and nothing mutates an entry afterwards — an update Puts a fresh
// clone under the same key. Internal readers (candidates, snapshot) hand
// out the stored pointers directly under a read-only contract, which is
// what lets the matchmaking hot path skip per-match cloning; the exported
// Get/All still clone for callers outside the package's control.
type Repository struct {
	shards []*repoShard
	mask   uint64 // len(shards) is a power of two; mask = len-1

	// indexed can be disabled to measure the index benefit
	// (BenchmarkRepositoryIndexes).
	indexed bool

	// snapshot memo: the sorted snapshot is recomputed only when the
	// generation moved (the DatalogMatcher calls snapshot per operation,
	// and used to pay a full sort every time even when nothing changed).
	snapMu  sync.Mutex
	snapGen uint64
	snap    []*ontology.Advertisement // nil = no memo
}

// NewRepository returns an empty, indexed, single-shard repository — the
// flat layout every broker used before sharding, still the default.
func NewRepository() *Repository {
	return NewShardedRepository(1)
}

// NewShardedRepository returns an empty, indexed repository partitioned
// into n shards. n is rounded up to a power of two (for mask dispatch)
// and clamped to [1, MaxRepositoryShards]; n <= 1 yields the flat
// single-shard layout.
func NewShardedRepository(n int) *Repository {
	n = normalizeShards(n)
	r := &Repository{
		shards:  make([]*repoShard, n),
		mask:    uint64(n - 1),
		indexed: true,
	}
	for i := range r.shards {
		r.shards[i] = newRepoShard()
	}
	return r
}

// normalizeShards clamps and rounds a requested shard count.
func normalizeShards(n int) int {
	if n <= 1 {
		return 1
	}
	if n > MaxRepositoryShards {
		n = MaxRepositoryShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewUnindexedRepository returns a repository that always scans all
// advertisements; only the index-ablation benchmark should want one.
func NewUnindexedRepository() *Repository {
	r := NewRepository()
	r.indexed = false
	return r
}

// Shards returns the repository's shard count.
func (r *Repository) Shards() int { return len(r.shards) }

func adKey(name string) string { return strings.ToLower(name) }

// FNV-1a, inlined so shard dispatch allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func shardHash(key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// shardFor routes an advertisement key to its owning shard. The
// single-shard fast path skips hashing entirely.
func (r *Repository) shardFor(key string) *repoShard {
	if len(r.shards) == 1 {
		return r.shards[0]
	}
	return r.shards[shardHash(key)&r.mask]
}

// numShards is the package-internal accessor the match cache sizes its
// per-shard caches with.
func (r *Repository) numShards() int { return len(r.shards) }

// shardGen reads one shard's mutation counter.
func (r *Repository) shardGen(i int) uint64 { return r.shards[i].gen.Load() }

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
	s := r.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.ads[key]; ok {
		s.unindexLocked(key)
	}
	s.ads[key] = cp
	s.indexLocked(key, cp)
	s.gen.Add(1)
	return nil
}

// Remove deletes an agent's advertisement; it reports whether one existed.
func (r *Repository) Remove(name string) bool {
	key := adKey(name)
	s := r.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.ads[key]; !ok {
		return false
	}
	s.unindexLocked(key)
	delete(s.ads, key)
	s.gen.Add(1)
	return true
}

// Generation returns the repository's mutation counter: the sum of the
// per-shard counters. Each shard's counter increments before Put/Remove
// return and never decreases, so any result computed from a generation
// read before a mutation cannot be served as current afterwards — the
// match cache's invalidation signal. On a single-shard repository this
// is exactly the historical flat counter.
func (r *Repository) Generation() uint64 {
	if len(r.shards) == 1 {
		return r.shards[0].gen.Load()
	}
	var sum uint64
	for _, s := range r.shards {
		sum += s.gen.Load()
	}
	return sum
}

// Get returns a copy of an agent's advertisement.
func (r *Repository) Get(name string) (*ontology.Advertisement, bool) {
	key := adKey(name)
	s := r.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	ad, ok := s.ads[key]
	if !ok {
		return nil, false
	}
	return ad.Clone(), true
}

// Contains reports whether the agent is advertised.
func (r *Repository) Contains(name string) bool {
	key := adKey(name)
	s := r.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.ads[key]
	return ok
}

// Len returns the number of stored advertisements.
func (r *Repository) Len() int {
	n := 0
	for _, s := range r.shards {
		s.mu.RLock()
		n += len(s.ads)
		s.mu.RUnlock()
	}
	return n
}

// LenNonBroker returns the number of stored non-broker advertisements —
// the size of the space the matchmaker reasons over for service queries
// (peer-broker entries are routing state, not candidates).
func (r *Repository) LenNonBroker() int {
	n := 0
	for _, s := range r.shards {
		s.mu.RLock()
		n += len(s.ads) - len(s.byType[ontology.TypeBroker])
		s.mu.RUnlock()
	}
	return n
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

func (s *repoShard) indexLocked(key string, ad *ontology.Advertisement) {
	addTo(s.byType, ad.Type, key)
	for i := range ad.Content {
		f := &ad.Content[i]
		ont := strings.ToLower(f.Ontology)
		classes := s.byOntology[ont]
		if classes == nil {
			classes = make(classIndexes)
			s.byOntology[ont] = classes
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
		addTo(s.byLanguage, strings.ToLower(l), key)
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

func (s *repoShard) unindexLocked(key string) {
	ad := s.ads[key]
	if ad == nil {
		return
	}
	delete(s.byType[ad.Type], key)
	for i := range ad.Content {
		f := &ad.Content[i]
		ont := strings.ToLower(f.Ontology)
		classes := s.byOntology[ont]
		for _, class := range f.Classes {
			if idx := classes[class]; idx != nil && idx.Remove(key) && idx.Len() == 0 {
				delete(classes, class)
			}
		}
		if classes != nil && len(classes) == 0 {
			delete(s.byOntology, ont)
		}
	}
	for _, l := range ad.ContentLanguages {
		delete(s.byLanguage[strings.ToLower(l)], key)
	}
}

// agentTypes returns the agent types with at least one advertisement,
// sorted.
func (r *Repository) agentTypes() []ontology.AgentType {
	var out []ontology.AgentType
	for _, s := range r.shards {
		s.mu.RLock()
		for t, set := range s.byType {
			if len(set) > 0 && !slices.Contains(out, t) {
				out = append(out, t)
			}
		}
		s.mu.RUnlock()
	}
	slices.Sort(out)
	return out
}

// candidates returns the advertisement pointers a query could match,
// narrowed by the type, ontology and language indexes when possible — the
// coarse set the provenance walk explains, rejected ads included. The
// returned ads are the repository's immutable snapshots: callers must not
// mutate them. The result order is unspecified — every caller (the
// matchers, the provenance re-walk) re-orders deterministically, so
// candidates does not pay for a sort of its own.
func (r *Repository) candidates(q *ontology.Query) []*ontology.Advertisement {
	return r.gather(func(s *repoShard) []*ontology.Advertisement { return s.candidates(q, r.indexed) })
}

// matchCandidates returns the advertisements worth running
// ontology.Match on: the class/region index's candidates when the query
// names a class and carries a bounded numeric constraint, else the
// coarse candidates.
func (r *Repository) matchCandidates(w *ontology.World, q *ontology.Query) []*ontology.Advertisement {
	return r.gather(func(s *repoShard) []*ontology.Advertisement { return s.matchCandidates(w, q, r.indexed) })
}

// shardMatchCandidates is matchCandidates for one shard — the per-shard
// match cache's recompute unit.
func (r *Repository) shardMatchCandidates(i int, w *ontology.World, q *ontology.Query) []*ontology.Advertisement {
	return r.shards[i].matchCandidates(w, q, r.indexed)
}

// gather concatenates one per-shard gather over every shard. On a
// multi-shard repository the gathers run through a bounded worker pool
// when enough cores are available; each shard is internally consistent
// under its own read lock, and no lock is held across shards.
func (r *Repository) gather(per func(*repoShard) []*ontology.Advertisement) []*ontology.Advertisement {
	if len(r.shards) == 1 {
		return per(r.shards[0])
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(r.shards) {
		workers = len(r.shards)
	}
	if workers > maxCandidateWorkers {
		workers = maxCandidateWorkers
	}
	if workers <= 1 {
		var out []*ontology.Advertisement
		for _, s := range r.shards {
			out = append(out, per(s)...)
		}
		return out
	}
	mShardParallelGathers.Inc()
	results := make([][]*ontology.Advertisement, len(r.shards))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(r.shards) {
					return
				}
				results[i] = per(r.shards[i])
			}
		}()
	}
	wg.Wait()
	n := 0
	for _, part := range results {
		n += len(part)
	}
	out := make([]*ontology.Advertisement, 0, n)
	for _, part := range results {
		out = append(out, part...)
	}
	return out
}

// matchCandidates narrows one shard for matching. A query naming an
// ontology and a class with a bounded numeric constraint probes the
// region indexes of its first class and every served subclass of it
// (ontology.Match admits an advertisement serving a subclass), on one
// bounded field of the query's constraints; any ad the match accepts
// serves that class and overlaps the query, so it is among the probed.
// Other queries take the type/ontology/language path.
func (s *repoShard) matchCandidates(w *ontology.World, q *ontology.Query, indexed bool) []*ontology.Advertisement {
	if !indexed || q.Ontology == "" || len(q.Classes) == 0 || !q.Constraints.HasNumericBound() {
		return s.candidates(q, indexed)
	}
	class := q.Classes[0]
	ont := w.Ontology(q.Ontology)
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*ontology.Advertisement
	visited, probed := 0, 0
	for served, idx := range s.byOntology[strings.ToLower(q.Ontology)] {
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

// candidates narrows one shard's advertisements by its type and
// language sets, keeping the ads that support the query's ontology; a
// query constraining only the ontology takes its class indexes' members.
// The output slice is sized by the post-intersection estimate under an
// independence assumption (|A∩B| ≈ |A|·|B|/N), not by the smallest index
// set — with several index sets the intersection is usually far smaller
// than any one of them.
func (s *repoShard) candidates(q *ontology.Query, indexed bool) []*ontology.Advertisement {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !indexed {
		return s.unsortedLocked()
	}
	var sets []map[string]bool
	if q.Type != ontology.TypeAny {
		sets = append(sets, s.byType[q.Type])
	}
	if q.ContentLanguage != "" {
		sets = append(sets, s.byLanguage[strings.ToLower(q.ContentLanguage)])
	}
	if q.Ontology != "" {
		classes := s.byOntology[strings.ToLower(q.Ontology)]
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
		return s.unsortedLocked()
	}
	// Intersect starting from the smallest set.
	sort.Slice(sets, func(i, j int) bool { return len(sets[i]) < len(sets[j]) })
	out := make([]*ontology.Advertisement, 0, intersectionEstimate(sets, len(s.ads)))
outer:
	for key := range sets[0] {
		for _, o := range sets[1:] {
			if !o[key] {
				continue outer
			}
		}
		if ad := s.ads[key]; q.Ontology == "" || ad.SupportsOntology(q.Ontology) {
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

	// Rebuild under all shard locks (ascending index order, so
	// concurrent snapshots cannot deadlock): the collected view is a
	// consistent cut, and the generation it is stamped with is exact.
	for _, s := range r.shards {
		s.mu.RLock()
	}
	gen = 0
	n := 0
	for _, s := range r.shards {
		gen += s.gen.Load()
		n += len(s.ads)
	}
	out := make([]*ontology.Advertisement, 0, n)
	for _, s := range r.shards {
		for _, ad := range s.ads {
			out = append(out, ad)
		}
	}
	for _, s := range r.shards {
		s.mu.RUnlock()
	}
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

func (s *repoShard) unsortedLocked() []*ontology.Advertisement {
	out := make([]*ontology.Advertisement, 0, len(s.ads))
	for _, ad := range s.ads {
		out = append(out, ad)
	}
	return out
}
