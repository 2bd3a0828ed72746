package rdf

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// cowTerms is a universe small enough that index nodes fill past
// smallNode and empty again: 12 subjects × 3 predicates × 12 objects, so
// (s,p) leaves, pos/osp middle nodes and (p,o) leaves all cross the
// slice/map boundary in both directions.
type cowTerms struct {
	subj, pred, obj []Term
}

func newCowTerms() cowTerms {
	var u cowTerms
	for i := 0; i < 12; i++ {
		if i%4 == 3 {
			u.subj = append(u.subj, Blank(fmt.Sprintf("b%d", i)))
		} else {
			u.subj = append(u.subj, IRI(fmt.Sprintf("urn:s%d", i)))
		}
	}
	for i := 0; i < 3; i++ {
		u.pred = append(u.pred, IRI(fmt.Sprintf("urn:p%d", i)))
	}
	for i := 0; i < 12; i++ {
		switch i % 3 {
		case 0:
			u.obj = append(u.obj, IRI(fmt.Sprintf("urn:o%d", i)))
		case 1:
			u.obj = append(u.obj, Integer(int64(i)))
		default:
			u.obj = append(u.obj, LangLiteral(fmt.Sprintf("o%d", i), "en"))
		}
	}
	return u
}

func (u cowTerms) random(rng *rand.Rand) Triple {
	return T(u.subj[rng.Intn(len(u.subj))], u.pred[rng.Intn(len(u.pred))], u.obj[rng.Intn(len(u.obj))])
}

// cowModel is the reference model: a plain triple set.
type cowModel map[Triple]struct{}

func (m cowModel) copy() cowModel {
	out := make(cowModel, len(m))
	for t := range m {
		out[t] = struct{}{}
	}
	return out
}

// cowReader is the read surface shared by *Graph and *Snapshot.
type cowReader interface {
	Dataset
	Triples() []Triple
	Count(s, p, o Term) int
}

// checkCow asserts that r holds exactly the model's triples, and that
// Cardinality and Count agree with the model on every pattern of all 8
// shapes over the universe, as does Stats.
func checkCow(t *testing.T, what string, r cowReader, m cowModel, u cowTerms) {
	t.Helper()
	want := make([]Triple, 0, len(m))
	card := make(map[Triple]int)
	var subj, pred, obj = map[Term]bool{}, map[Term]bool{}, map[Term]bool{}
	for tr := range m {
		want = append(want, tr)
		subj[tr.Subject], pred[tr.Predicate], obj[tr.Object] = true, true, true
		for shape := 0; shape < 8; shape++ {
			k := tr
			if shape&1 != 0 {
				k.Subject = Term{}
			}
			if shape&2 != 0 {
				k.Predicate = Term{}
			}
			if shape&4 != 0 {
				k.Object = Term{}
			}
			card[k]++
		}
	}
	sortTriples(want)
	if got := r.Triples(); !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Triples() has %d triples, model has %d", what, len(got), len(want))
	}
	wantStats := DatasetStats{Triples: len(m), Subjects: len(subj), Predicates: len(pred), Objects: len(obj)}
	if got := r.Stats(); got != wantStats {
		t.Fatalf("%s: Stats() = %+v, want %+v", what, got, wantStats)
	}
	withZero := func(ts []Term) []Term { return append([]Term{{}}, ts...) }
	for _, s := range withZero(u.subj) {
		for _, p := range withZero(u.pred) {
			for _, o := range withZero(u.obj) {
				w := card[T(s, p, o)]
				if got := r.Cardinality(s, p, o); got != w {
					t.Fatalf("%s: Cardinality(%v, %v, %v) = %d, want %d", what, s, p, o, got, w)
				}
				if got := r.Count(s, p, o); got != w {
					t.Fatalf("%s: Count(%v, %v, %v) = %d, want %d", what, s, p, o, got, w)
				}
			}
		}
	}
}

// TestSnapshotCopyOnWriteProperty drives a seeded random mix of writes,
// snapshots and clones across the slice/map promotion boundary and
// checks that every snapshot and clone still equals the model copy taken
// with it, and every live graph its own model.
func TestSnapshotCopyOnWriteProperty(t *testing.T) {
	u := newCowTerms()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type live struct {
			g *Graph
			m cowModel
		}
		type frozen struct {
			s *Snapshot
			m cowModel
		}
		graphs := []*live{{g: NewGraph(), m: cowModel{}}}
		var snaps []frozen
		for op := 0; op < 1500; op++ {
			l := graphs[rng.Intn(len(graphs))]
			switch r := rng.Intn(100); {
			case r < 40:
				tr := u.random(rng)
				added, err := l.g.Add(tr)
				_, had := l.m[tr]
				if err != nil || added == had {
					t.Fatalf("seed %d op %d: Add(%v) = (%v, %v), model had it: %v", seed, op, tr, added, err, had)
				}
				l.m[tr] = struct{}{}
			case r < 70:
				tr := u.random(rng)
				_, had := l.m[tr]
				if got := l.g.Remove(tr); got != had {
					t.Fatalf("seed %d op %d: Remove(%v) = %v, model had it: %v", seed, op, tr, got, had)
				}
				delete(l.m, tr)
			case r < 85:
				batch := make([]Triple, 1+rng.Intn(12))
				want := 0
				for i := range batch {
					batch[i] = u.random(rng)
					if _, had := l.m[batch[i]]; !had {
						l.m[batch[i]] = struct{}{}
						want++
					}
				}
				if added, err := l.g.AddBatch(batch); err != nil || added != want {
					t.Fatalf("seed %d op %d: AddBatch = (%d, %v), want (%d, nil)", seed, op, added, err, want)
				}
			case r < 93:
				snaps = append(snaps, frozen{s: l.g.Snapshot(), m: l.m.copy()})
			case r < 98:
				if len(graphs) < 6 {
					graphs = append(graphs, &live{g: l.g.Clone(), m: l.m.copy()})
				}
			default:
				l.g.Clear()
				l.m = cowModel{}
			}
		}
		sawMap, sawSlice := false, false
		for i, f := range snaps {
			checkCow(t, fmt.Sprintf("seed %d snapshot %d", seed, i), f.s, f.m, u)
			for _, root := range []map[Term]*midMap{f.s.v.spo, f.s.v.pos, f.s.v.osp} {
				for _, mid := range root {
					sawMap = sawMap || mid.m != nil
					sawSlice = sawSlice || mid.m == nil
					mid.each(func(_ Term, leaf *leafSet) bool {
						sawMap = sawMap || leaf.m != nil
						sawSlice = sawSlice || leaf.m == nil
						return true
					})
				}
			}
		}
		if !sawMap || !sawSlice {
			t.Fatalf("seed %d: snapshots never held both slice and map nodes (map %v, slice %v)", seed, sawMap, sawSlice)
		}
		for i, l := range graphs {
			checkCow(t, fmt.Sprintf("seed %d graph %d", seed, i), l.g, l.m, u)
		}
	}
}

// TestSnapshotSliceNodeSpareCapacity is the regression case for inline
// nodes: a slice node with spare capacity is captured by a snapshot (and
// a clone), then written in place by both graphs. Neither write may
// reach the shared backing array.
func TestSnapshotSliceNodeSpareCapacity(t *testing.T) {
	s, p := IRI("urn:s"), IRI("urn:p")
	g := NewGraph()
	for i := 0; i < 3; i++ {
		g.MustAdd(T(s, p, Integer(int64(i))))
	}
	leaf := g.v.spo[s].get(p)
	if leaf.m != nil || cap(leaf.small) <= len(leaf.small) {
		t.Fatalf("setup: want a slice leaf with spare capacity, got len %d cap %d map %v",
			len(leaf.small), cap(leaf.small), leaf.m != nil)
	}
	snap := g.Snapshot()
	before := snap.Triples()
	c := g.Clone()

	g.MustAdd(T(s, p, Integer(10)))
	c.MustAdd(T(s, p, Integer(20)))
	g.Remove(T(s, p, Integer(0)))
	c.Remove(T(s, p, Integer(1)))

	if got := snap.Triples(); !reflect.DeepEqual(got, before) {
		t.Fatalf("snapshot changed: %v, want %v", got, before)
	}
	if got := snap.Cardinality(s, p, Term{}); got != 3 {
		t.Fatalf("snapshot Cardinality(s, p, ·) = %d, want 3", got)
	}
	wantG := []Triple{T(s, p, Integer(1)), T(s, p, Integer(2)), T(s, p, Integer(10))}
	wantC := []Triple{T(s, p, Integer(0)), T(s, p, Integer(2)), T(s, p, Integer(20))}
	sortTriples(wantG)
	sortTriples(wantC)
	if got := g.Triples(); !reflect.DeepEqual(got, wantG) {
		t.Fatalf("graph = %v, want %v", got, wantG)
	}
	if got := c.Triples(); !reflect.DeepEqual(got, wantC) {
		t.Fatalf("clone = %v, want %v", got, wantC)
	}
}
