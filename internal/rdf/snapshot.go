package rdf

import "time"

// Dataset is the read-only access contract shared by the live *Graph and
// the immutable *Snapshot: pattern iteration plus the index statistics
// the SPARQL planner uses to order joins. Reads through a *Graph
// synchronize with writers; reads through a *Snapshot are lock-free.
type Dataset interface {
	// ForEachMatch calls fn for every triple matching the pattern (zero
	// Terms are wildcards) until fn returns false.
	ForEachMatch(s, p, o Term, fn func(Triple) bool)
	// Cardinality returns the exact number of triples matching the
	// pattern in O(1) using the per-position index statistics.
	Cardinality(s, p, o Term) int
	// Stats returns dataset-level statistics.
	Stats() DatasetStats
	// Len returns the number of triples.
	Len() int
}

// DatasetStats summarizes a dataset's index statistics: the triple count
// and the number of distinct terms per triple position.
type DatasetStats struct {
	Triples    int
	Subjects   int
	Predicates int
	Objects    int
}

// view is one version of the graph's indexes. The Graph wraps its
// current view behind a lock; a Snapshot freezes one version, after which
// no writer ever mutates its nodes (copy-on-write).
type view struct {
	// spo indexes subject → predicate → object set; pos and osp are the
	// rotations used to answer patterns with unbound subjects. Each root
	// entry's midMap counts the triples under it, so the per-position
	// cardinality statistics are the root sizes and node counts.
	spo map[Term]*midMap
	pos map[Term]*midMap
	osp map[Term]*midMap
	n   int
}

func newView() view {
	return view{
		spo: make(map[Term]*midMap),
		pos: make(map[Term]*midMap),
		osp: make(map[Term]*midMap),
	}
}

// Snapshot is an immutable point-in-time view of a Graph, produced in
// O(1) by Graph.Snapshot or Graph.Clone's copy-on-write machinery. All
// read methods are lock-free and safe for concurrent use; a Snapshot
// never changes, no matter what happens to the originating Graph.
type Snapshot struct {
	v     view
	taken time.Time
}

func newSnapshot(v view) *Snapshot {
	return &Snapshot{v: v, taken: time.Now()}
}

// Taken returns the time the snapshot was captured.
func (s *Snapshot) Taken() time.Time { return s.taken }

// Age returns how long ago the snapshot was captured.
func (s *Snapshot) Age() time.Duration { return time.Since(s.taken) }

// Len returns the number of triples in the snapshot.
func (s *Snapshot) Len() int { return s.v.n }

// Has reports whether the triple is present.
func (s *Snapshot) Has(t Triple) bool { return s.v.has(t) }

// ForEachMatch calls fn for every triple matching the pattern (zero Terms
// are wildcards) until fn returns false. Iteration order is unspecified.
func (s *Snapshot) ForEachMatch(sub, p, o Term, fn func(Triple) bool) {
	s.v.forEachMatch(sub, p, o, fn)
}

// Match returns all triples matching the pattern in sorted order.
func (s *Snapshot) Match(sub, p, o Term) []Triple { return s.v.match(sub, p, o) }

// Count returns the number of triples matching the pattern.
func (s *Snapshot) Count(sub, p, o Term) int {
	n := 0
	s.v.forEachMatch(sub, p, o, func(Triple) bool { n++; return true })
	return n
}

// Cardinality returns the exact number of triples matching the pattern in
// O(1) using the index statistics.
func (s *Snapshot) Cardinality(sub, p, o Term) int { return s.v.cardinality(sub, p, o) }

// Stats returns the snapshot's index statistics.
func (s *Snapshot) Stats() DatasetStats { return s.v.stats() }

// Subjects returns the distinct subjects of triples matching (·, p, o),
// in sorted order.
func (s *Snapshot) Subjects(p, o Term) []Term { return s.v.subjects(p, o) }

// Objects returns the distinct objects of triples matching (s, p, ·),
// in sorted order.
func (s *Snapshot) Objects(sub, p Term) []Term { return s.v.objects(sub, p) }

// FirstObject returns the least object of (s, p, ·) in term order, or a
// zero Term if none exists.
func (s *Snapshot) FirstObject(sub, p Term) Term { return s.v.firstObject(sub, p) }

// Triples returns every triple in sorted order.
func (s *Snapshot) Triples() []Triple { return s.v.match(Term{}, Term{}, Term{}) }

// ---- shared read algorithms ----

func (v *view) has(t Triple) bool {
	return v.spo[t.Subject].get(t.Predicate).has(t.Object)
}

func (v *view) forEachMatch(s, p, o Term, fn func(Triple) bool) {
	switch {
	case !s.IsZero() && !p.IsZero() && !o.IsZero():
		if v.has(T(s, p, o)) {
			fn(T(s, p, o))
		}
	case !s.IsZero() && !p.IsZero():
		v.spo[s].get(p).each(func(obj Term, _ struct{}) bool { return fn(T(s, p, obj)) })
	case !s.IsZero() && !o.IsZero():
		v.osp[o].get(s).each(func(pred Term, _ struct{}) bool { return fn(T(s, pred, o)) })
	case !p.IsZero() && !o.IsZero():
		v.pos[p].get(o).each(func(subj Term, _ struct{}) bool { return fn(T(subj, p, o)) })
	case !s.IsZero():
		v.spo[s].each(func(pred Term, leaf *leafSet) bool {
			return leaf.each(func(obj Term, _ struct{}) bool { return fn(T(s, pred, obj)) })
		})
	case !p.IsZero():
		v.pos[p].each(func(obj Term, leaf *leafSet) bool {
			return leaf.each(func(subj Term, _ struct{}) bool { return fn(T(subj, p, obj)) })
		})
	case !o.IsZero():
		v.osp[o].each(func(subj Term, leaf *leafSet) bool {
			return leaf.each(func(pred Term, _ struct{}) bool { return fn(T(subj, pred, o)) })
		})
	default:
		for subj, mid := range v.spo {
			if !mid.each(func(pred Term, leaf *leafSet) bool {
				return leaf.each(func(obj Term, _ struct{}) bool { return fn(T(subj, pred, obj)) })
			}) {
				return
			}
		}
	}
}

func (v *view) match(s, p, o Term) []Triple {
	var out []Triple
	v.forEachMatch(s, p, o, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	sortTriples(out)
	return out
}

func (v *view) cardinality(s, p, o Term) int {
	switch {
	case !s.IsZero() && !p.IsZero() && !o.IsZero():
		if v.has(T(s, p, o)) {
			return 1
		}
		return 0
	case !s.IsZero() && !p.IsZero():
		return v.spo[s].get(p).len()
	case !p.IsZero() && !o.IsZero():
		return v.pos[p].get(o).len()
	case !s.IsZero() && !o.IsZero():
		return v.osp[o].get(s).len()
	case !s.IsZero():
		return v.spo[s].count()
	case !p.IsZero():
		return v.pos[p].count()
	case !o.IsZero():
		return v.osp[o].count()
	default:
		return v.n
	}
}

func (v *view) stats() DatasetStats {
	return DatasetStats{
		Triples:    v.n,
		Subjects:   len(v.spo),
		Predicates: len(v.pos),
		Objects:    len(v.osp),
	}
}

func (v *view) subjects(p, o Term) []Term {
	seen := make(map[Term]struct{})
	v.forEachMatch(Term{}, p, o, func(t Triple) bool {
		seen[t.Subject] = struct{}{}
		return true
	})
	return sortedTerms(seen)
}

func (v *view) objects(s, p Term) []Term {
	seen := make(map[Term]struct{})
	v.forEachMatch(s, p, Term{}, func(t Triple) bool {
		seen[t.Object] = struct{}{}
		return true
	})
	return sortedTerms(seen)
}

func (v *view) firstObject(s, p Term) Term {
	var best Term
	found := false
	v.forEachMatch(s, p, Term{}, func(t Triple) bool {
		if !found || termLess(t.Object, best) {
			best, found = t.Object, true
		}
		return true
	})
	return best
}
