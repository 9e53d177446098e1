package constraint

import (
	"math"
	"slices"
	"sort"
)

// Index is a constraint-region index: it holds members, each a string ID
// with a payload that identifies it and one or more regions, and answers
// "which members could overlap this region" without testing every
// member. It is the connector-constraint pruning a broker and a
// subscription hub both need, made into a data structure: the broker
// keeps one per served class to pick the advertisements worth running
// the full match on, and the hub one per class to pick the standing
// queries a change can affect.
//
// For every numeric field some member bounds, the index keeps the
// members' intervals on that field sorted by lower bound, in blocks that
// carry the largest upper bound inside the block and the running maximum
// over all blocks up to it. A probe on [lo, hi] binary-searches the
// running maximum for the first block that can reach lo, skips blocks
// whose own maximum falls short of it, and stops at the first interval
// starting after hi. A member whose region leaves the field unbounded —
// no atom on it, an Allowed-set atom, or an interval with neither bound —
// counts as (−∞, +∞) there and sits in a side table every probe returns.
// Open bounds are indexed as closed. The index therefore never misses a
// member that overlaps; callers run Set.Overlaps on what Probe returns.
//
// Index is not safe for concurrent use: callers serialise Insert and
// Remove against each other and against Probe. Probe only reads, so
// concurrent probes are safe.
type Index[V comparable] struct {
	// Members live in numbered slots so the interval blocks hold slot
	// numbers, not pointers: shifting them on insert costs no GC write
	// barriers, and the collector never scans them.
	slots  []member[V]
	spare  []int32 // freed slot numbers
	byID   map[string]int32
	fields map[string]*fieldIndex
	// multi counts members holding more than one region; only they can
	// surface twice in one probe.
	multi int
}

// member is one ID's payload and regions. The first region is held
// inline, so the common one-region member costs no slice.
type member[V comparable] struct {
	v     V
	first *Set
	rest  []*Set
}

// fieldIndex is one field's intervals, sorted by (lo, slot, hi) across
// blocks, plus the members that leave the field unbounded.
type fieldIndex struct {
	blocks    []ivBlock
	n         int             // intervals across blocks
	unbounded map[int32]int32 // slot → regions unbounded on the field
}

type ivEntry struct {
	lo, hi float64
	slot   int32
}

type ivBlock struct {
	ents  []ivEntry // never empty
	maxHi float64   // max hi in ents
	runHi float64   // max hi over this block and all blocks before it
}

// blockMax bounds a block's length: inserts shift at most this many
// entries, and a probe reads ~len/blockMax block headers at worst.
const blockMax = 128

// NewIndex returns an empty index.
func NewIndex[V comparable]() *Index[V] {
	return &Index[V]{
		byID:   make(map[string]int32),
		fields: make(map[string]*fieldIndex),
	}
}

// Len returns the number of members.
func (x *Index[V]) Len() int { return len(x.byID) }

// Get returns member id's payload.
func (x *Index[V]) Get(id string) (V, bool) {
	s, ok := x.byID[id]
	if !ok {
		var zero V
		return zero, false
	}
	return x.slots[s].v, true
}

// Range calls fn for every member, in unspecified order, until fn
// returns false.
func (x *Index[V]) Range(fn func(id string, v V) bool) {
	for id, s := range x.byID {
		if !fn(id, x.slots[s].v) {
			return
		}
	}
}

// Insert adds a region to member id, creating the member with payload v
// if it is new (an existing member keeps its payload). A nil region
// admits everything. The index keeps region and requires it to stay
// unmodified until the member is removed.
func (x *Index[V]) Insert(id string, v V, region *Set) {
	if region != nil {
		for _, a := range region.atoms {
			if _, ok := x.fields[a.Field]; !ok {
				if _, _, bounded := numericBounds(a); bounded {
					x.addField(a.Field)
				}
			}
		}
	}
	s, ok := x.byID[id]
	if !ok {
		if n := len(x.spare); n > 0 {
			s, x.spare = x.spare[n-1], x.spare[:n-1]
		} else {
			s = int32(len(x.slots))
			x.slots = append(x.slots, member[V]{})
		}
		x.slots[s] = member[V]{v: v, first: region}
		x.byID[id] = s
	} else {
		m := &x.slots[s]
		m.rest = append(m.rest, region)
		if len(m.rest) == 1 {
			x.multi++
		}
	}
	for f, fi := range x.fields {
		fi.place(f, s, region)
	}
}

// addField starts indexing a field no member bounds yet: every region
// already held is unbounded on it.
func (x *Index[V]) addField(f string) {
	fi := &fieldIndex{unbounded: make(map[int32]int32, len(x.byID))}
	for _, s := range x.byID {
		fi.unbounded[s] = int32(1 + len(x.slots[s].rest))
	}
	x.fields[f] = fi
}

// Remove deletes member id and all its regions; it reports whether the
// member existed.
func (x *Index[V]) Remove(id string) bool {
	s, ok := x.byID[id]
	if !ok {
		return false
	}
	m := &x.slots[s]
	if len(m.rest) > 0 {
		x.multi--
	}
	for f, fi := range x.fields {
		fi.unplace(f, s, m.first)
		for _, r := range m.rest {
			fi.unplace(f, s, r)
		}
		if fi.n == 0 {
			// No member bounds the field any more.
			delete(x.fields, f)
		}
	}
	delete(x.byID, id)
	*m = member[V]{}
	x.spare = append(x.spare, s)
	return true
}

// Probe appends to dst every member whose regions could overlap region,
// each once, and returns the extended slice with the number of index
// entries it visited. It probes on the one bounded numeric field of
// region that the index leaves fewest members unbounded on; when region
// has no such field, every member is returned.
func (x *Index[V]) Probe(region *Set, dst []V) ([]V, int) {
	if region.Unsatisfiable() {
		return dst, 0
	}
	fi, lo, hi := x.probeField(region)
	if fi == nil {
		for _, s := range x.byID {
			dst = append(dst, x.slots[s].v)
		}
		return dst, len(x.byID)
	}
	start := len(dst)
	for s := range fi.unbounded {
		dst = append(dst, x.slots[s].v)
	}
	visited := len(fi.unbounded)
	bi := sort.Search(len(fi.blocks), func(i int) bool { return fi.blocks[i].runHi >= lo })
scan:
	for ; bi < len(fi.blocks); bi++ {
		b := &fi.blocks[bi]
		if b.ents[0].lo > hi {
			break
		}
		if b.maxHi < lo {
			continue
		}
		for k := range b.ents {
			e := &b.ents[k]
			if e.lo > hi {
				break scan
			}
			visited++
			if e.hi >= lo {
				dst = append(dst, x.slots[e.slot].v)
			}
		}
	}
	if x.multi > 0 {
		dst = dedupe(dst, start)
	}
	return dst, visited
}

// probeField picks the field to probe: a bounded numeric atom of region
// on an indexed field, preferring the fewest unbounded members and then
// the smaller field name, so the choice is deterministic.
func (x *Index[V]) probeField(region *Set) (best *fieldIndex, lo, hi float64) {
	if region == nil {
		return nil, 0, 0
	}
	for _, a := range region.atoms {
		fi, ok := x.fields[a.Field]
		if !ok {
			continue
		}
		l, h, bounded := numericBounds(a)
		if !bounded {
			continue
		}
		// Atoms come in field order, so a tie keeps the smaller name.
		if best == nil || len(fi.unbounded) < len(best.unbounded) {
			best, lo, hi = fi, l, h
		}
	}
	return best, lo, hi
}

// numericBounds returns the closed hull of an atom's interval, with a
// missing side as an infinity; bounded is false for Allowed-set atoms and
// intervals with neither bound, which the index treats as (−∞, +∞).
func numericBounds(a Atom) (lo, hi float64, bounded bool) {
	iv := a.Interval
	if a.discrete() || (!iv.HasLo && !iv.HasHi) {
		return 0, 0, false
	}
	lo, hi = math.Inf(-1), math.Inf(1)
	if iv.HasLo {
		lo = iv.Lo
	}
	if iv.HasHi {
		hi = iv.Hi
	}
	return lo, hi, true
}

// dedupe drops repeated payloads from dst[start:], keeping first
// occurrences in order.
func dedupe[V comparable](dst []V, start int) []V {
	out := dst[:start]
	tail := dst[start:]
	if len(tail) <= 64 {
	next:
		for _, v := range tail {
			for _, w := range out[start:] {
				if w == v {
					continue next
				}
			}
			out = append(out, v)
		}
		return out
	}
	seen := make(map[V]struct{}, len(tail))
	for _, v := range tail {
		if _, dup := seen[v]; !dup {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	return out
}

// place files one region of the member in slot s under field f.
func (fi *fieldIndex) place(f string, s int32, region *Set) {
	a, _ := region.Atom(f)
	lo, hi, bounded := numericBounds(a)
	if !bounded {
		fi.unbounded[s]++
		return
	}
	fi.insert(ivEntry{lo: lo, hi: hi, slot: s})
}

// unplace removes what place filed for the same region.
func (fi *fieldIndex) unplace(f string, s int32, region *Set) {
	a, _ := region.Atom(f)
	lo, hi, bounded := numericBounds(a)
	if !bounded {
		if fi.unbounded[s] > 1 {
			fi.unbounded[s]--
		} else {
			delete(fi.unbounded, s)
		}
		return
	}
	fi.remove(ivEntry{lo: lo, hi: hi, slot: s})
}

func (e *ivEntry) less(o *ivEntry) bool {
	if e.lo != o.lo {
		return e.lo < o.lo
	}
	if e.slot != o.slot {
		return e.slot < o.slot
	}
	return e.hi < o.hi
}

// blockFor returns the block an entry belongs in: the last block whose
// first entry does not sort after it, or block 0.
func (fi *fieldIndex) blockFor(e *ivEntry) int {
	i := sort.Search(len(fi.blocks), func(i int) bool { return e.less(&fi.blocks[i].ents[0]) })
	if i > 0 {
		i--
	}
	return i
}

func (fi *fieldIndex) insert(e ivEntry) {
	fi.n++
	if len(fi.blocks) == 0 {
		ents := make([]ivEntry, 1, blockMax/2)
		ents[0] = e
		fi.blocks = append(fi.blocks, ivBlock{ents: ents, maxHi: e.hi})
		fi.fixRun(0)
		return
	}
	bi := fi.blockFor(&e)
	b := &fi.blocks[bi]
	i := sort.Search(len(b.ents), func(i int) bool { return e.less(&b.ents[i]) })
	b.ents = slices.Insert(b.ents, i, e)
	b.maxHi = math.Max(b.maxHi, e.hi)
	if len(b.ents) > blockMax {
		fi.split(bi)
	}
	fi.fixRun(bi)
}

// split halves an overfull block.
func (fi *fieldIndex) split(bi int) {
	b := &fi.blocks[bi]
	half := len(b.ents) / 2
	upper := make([]ivEntry, len(b.ents)-half, blockMax+1)
	copy(upper, b.ents[half:])
	b.ents = b.ents[:half]
	b.maxHi = maxHi(b.ents)
	fi.blocks = slices.Insert(fi.blocks, bi+1, ivBlock{ents: upper, maxHi: maxHi(upper)})
}

func (fi *fieldIndex) remove(e ivEntry) {
	if len(fi.blocks) == 0 {
		return
	}
	bi := fi.blockFor(&e)
	b := &fi.blocks[bi]
	i := sort.Search(len(b.ents), func(i int) bool { return !b.ents[i].less(&e) })
	if i == len(b.ents) || b.ents[i] != e {
		return
	}
	fi.n--
	b.ents = slices.Delete(b.ents, i, i+1)
	switch {
	case len(b.ents) == 0:
		fi.blocks = slices.Delete(fi.blocks, bi, bi+1)
	case len(b.ents) < blockMax/4 && bi+1 < len(fi.blocks) && len(b.ents)+len(fi.blocks[bi+1].ents) <= blockMax:
		// Merge a thinned block with its successor so churn cannot leave
		// a long tail of near-empty blocks.
		b.ents = append(b.ents, fi.blocks[bi+1].ents...)
		b.maxHi = maxHi(b.ents)
		fi.blocks = slices.Delete(fi.blocks, bi+1, bi+2)
	case e.hi >= b.maxHi:
		b.maxHi = maxHi(b.ents)
	}
	if bi < len(fi.blocks) {
		fi.fixRun(bi)
	}
}

// fixRun recomputes the running maximum from block bi on.
func (fi *fieldIndex) fixRun(bi int) {
	run := math.Inf(-1)
	if bi > 0 {
		run = fi.blocks[bi-1].runHi
	}
	for i := bi; i < len(fi.blocks); i++ {
		run = math.Max(run, fi.blocks[i].maxHi)
		fi.blocks[i].runHi = run
	}
}

func maxHi(ents []ivEntry) float64 {
	m := math.Inf(-1)
	for i := range ents {
		m = math.Max(m, ents[i].hi)
	}
	return m
}
