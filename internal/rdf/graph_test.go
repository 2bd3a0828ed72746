package rdf

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func mustAdd(t *testing.T, g *Graph, tr Triple) {
	t.Helper()
	added, err := g.Add(tr)
	if err != nil {
		t.Fatalf("Add(%v): %v", tr, err)
	}
	if !added {
		t.Fatalf("Add(%v): expected insertion", tr)
	}
}

func TestGraphAddHasRemove(t *testing.T) {
	g := NewGraph()
	tr := T(IRI("urn:s"), IRI("urn:p"), Literal("o"))
	mustAdd(t, g, tr)
	if !g.Has(tr) {
		t.Fatal("Has should find inserted triple")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
	// Duplicate insert is a no-op.
	added, err := g.Add(tr)
	if err != nil || added {
		t.Fatalf("duplicate Add = (%v, %v), want (false, nil)", added, err)
	}
	if g.Len() != 1 {
		t.Fatalf("Len after dup = %d, want 1", g.Len())
	}
	if !g.Remove(tr) {
		t.Fatal("Remove should report true for present triple")
	}
	if g.Has(tr) || g.Len() != 0 {
		t.Fatal("triple should be gone after Remove")
	}
	if g.Remove(tr) {
		t.Fatal("Remove of absent triple should report false")
	}
}

func TestGraphAddValidation(t *testing.T) {
	g := NewGraph()
	bad := []Triple{
		{},
		T(Literal("s"), IRI("urn:p"), Literal("o")),
		T(IRI("urn:s"), Literal("p"), Literal("o")),
		T(IRI("urn:s"), Blank("p"), Literal("o")),
	}
	for _, tr := range bad {
		if _, err := g.Add(tr); err == nil {
			t.Errorf("Add(%v) should fail validation", tr)
		}
	}
	// Blank subject is legal.
	if _, err := g.Add(T(Blank("b"), IRI("urn:p"), IRI("urn:o"))); err != nil {
		t.Errorf("blank subject should be legal: %v", err)
	}
}

func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	stmts := []Triple{
		T(IRI("urn:p1"), IRI(RDFType), IRI("urn:Protein")),
		T(IRI("urn:p2"), IRI(RDFType), IRI("urn:Protein")),
		T(IRI("urn:p1"), IRI("urn:hr"), Double(0.8)),
		T(IRI("urn:p2"), IRI("urn:hr"), Double(0.3)),
		T(IRI("urn:p1"), IRI("urn:mc"), Double(0.5)),
	}
	for _, s := range stmts {
		mustAdd(t, g, s)
	}
	return g
}

func TestGraphMatchPatterns(t *testing.T) {
	g := buildTestGraph(t)
	cases := []struct {
		name    string
		s, p, o Term
		want    int
	}{
		{"all wild", Term{}, Term{}, Term{}, 5},
		{"by subject", IRI("urn:p1"), Term{}, Term{}, 3},
		{"by predicate", Term{}, IRI("urn:hr"), Term{}, 2},
		{"by object", Term{}, Term{}, IRI("urn:Protein"), 2},
		{"s+p", IRI("urn:p1"), IRI("urn:hr"), Term{}, 1},
		{"p+o", Term{}, IRI(RDFType), IRI("urn:Protein"), 2},
		{"s+o", IRI("urn:p1"), Term{}, Double(0.5), 1},
		{"exact hit", IRI("urn:p1"), IRI("urn:mc"), Double(0.5), 1},
		{"exact miss", IRI("urn:p1"), IRI("urn:mc"), Double(0.9), 0},
		{"absent subject", IRI("urn:nope"), Term{}, Term{}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := g.Match(c.s, c.p, c.o)
			if len(got) != c.want {
				t.Errorf("Match returned %d triples, want %d: %v", len(got), c.want, got)
			}
			if n := g.Count(c.s, c.p, c.o); n != c.want {
				t.Errorf("Count = %d, want %d", n, c.want)
			}
		})
	}
}

func TestGraphMatchDeterministicOrder(t *testing.T) {
	g := buildTestGraph(t)
	first := g.Match(Term{}, Term{}, Term{})
	for i := 0; i < 5; i++ {
		if again := g.Match(Term{}, Term{}, Term{}); !reflect.DeepEqual(first, again) {
			t.Fatal("Match order is not deterministic")
		}
	}
}

func TestGraphSubjectsObjects(t *testing.T) {
	g := buildTestGraph(t)
	subs := g.Subjects(IRI(RDFType), IRI("urn:Protein"))
	if len(subs) != 2 || subs[0] != IRI("urn:p1") || subs[1] != IRI("urn:p2") {
		t.Errorf("Subjects = %v", subs)
	}
	objs := g.Objects(IRI("urn:p1"), IRI("urn:hr"))
	if len(objs) != 1 || objs[0] != Double(0.8) {
		t.Errorf("Objects = %v", objs)
	}
	if got := g.FirstObject(IRI("urn:p1"), IRI("urn:hr")); got != Double(0.8) {
		t.Errorf("FirstObject = %v", got)
	}
	if got := g.FirstObject(IRI("urn:p1"), IRI("urn:none")); !got.IsZero() {
		t.Errorf("FirstObject of absent property = %v, want zero", got)
	}
}

func TestGraphForEachMatchEarlyStop(t *testing.T) {
	g := buildTestGraph(t)
	n := 0
	g.ForEachMatch(Term{}, Term{}, Term{}, func(Triple) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early stop visited %d, want 2", n)
	}
}

func TestGraphCloneMergeClear(t *testing.T) {
	g := buildTestGraph(t)
	c := g.Clone()
	if c.Len() != g.Len() {
		t.Fatalf("clone Len = %d, want %d", c.Len(), g.Len())
	}
	mustAdd(t, c, T(IRI("urn:extra"), IRI("urn:p"), Literal("x")))
	if g.Has(T(IRI("urn:extra"), IRI("urn:p"), Literal("x"))) {
		t.Fatal("mutating clone affected original")
	}
	g2 := NewGraph()
	g2.Merge(g)
	if g2.Len() != g.Len() {
		t.Fatalf("merge Len = %d, want %d", g2.Len(), g.Len())
	}
	g2.Clear()
	if g2.Len() != 0 || len(g2.Triples()) != 0 {
		t.Fatal("Clear should empty the graph")
	}
}

func TestGraphConcurrentAccess(t *testing.T) {
	g := NewGraph()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := IRI(fmt.Sprintf("urn:s%d", w))
				tr := T(s, IRI("urn:p"), Integer(int64(i)))
				if _, err := g.Add(tr); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
				g.Count(s, Term{}, Term{})
				if i%3 == 0 {
					g.Remove(tr)
				}
			}
		}(w)
	}
	wg.Wait()
}

// Property: for any random set of triples, the graph behaves like a set —
// Len equals the number of distinct triples and every inserted triple is
// findable via every index rotation.
func TestGraphSetSemanticsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		set := make(map[Triple]struct{})
		for i := 0; i < 100; i++ {
			tr := T(
				IRI(fmt.Sprintf("urn:s%d", rng.Intn(10))),
				IRI(fmt.Sprintf("urn:p%d", rng.Intn(5))),
				Integer(int64(rng.Intn(8))),
			)
			if rng.Intn(4) == 0 {
				g.Remove(tr)
				delete(set, tr)
				continue
			}
			if _, err := g.Add(tr); err != nil {
				return false
			}
			set[tr] = struct{}{}
		}
		if g.Len() != len(set) {
			return false
		}
		for tr := range set {
			if !g.Has(tr) {
				return false
			}
			if len(g.Match(tr.Subject, Term{}, Term{})) == 0 ||
				len(g.Match(Term{}, tr.Predicate, Term{})) == 0 ||
				len(g.Match(Term{}, Term{}, tr.Object)) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	g := buildTestGraph(t)
	mustAdd(t, g, T(Blank("b1"), IRI("urn:note"), LangLiteral("hóla", "es")))
	mustAdd(t, g, T(IRI("urn:p1"), IRI("urn:desc"), Literal("line\nwith \"quotes\"")))

	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		t.Fatalf("WriteNTriples: %v", err)
	}
	back, err := ReadNTriples(&buf)
	if err != nil {
		t.Fatalf("ReadNTriples: %v", err)
	}
	if !reflect.DeepEqual(g.Triples(), back.Triples()) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", back.Triples(), g.Triples())
	}
}

func TestReadNTriplesSkipsCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\n<urn:a> <urn:b> \"c\" .\n  # indented comment\n"
	g, err := ReadNTriples(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatalf("ReadNTriples: %v", err)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
}

func TestReadNTriplesErrors(t *testing.T) {
	bad := []string{
		"<urn:a> <urn:b> \"c\"",          // missing dot
		"<urn:a> <urn:b> .",              // missing object
		"\"lit\" <urn:b> <urn:c> .",      // literal subject
		"<urn:a> \"lit\" <urn:c> .",      // literal predicate
		"<urn:a> <urn:b> <urn:c> . junk", // trailing garbage
	}
	for _, s := range bad {
		if _, err := ReadNTriples(bytes.NewReader([]byte(s))); err == nil {
			t.Errorf("ReadNTriples(%q) should fail", s)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := buildTestGraph(t)
	path := filepath.Join(t.TempDir(), "g.nt")
	if err := SaveFile(path, g); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if !reflect.DeepEqual(g.Triples(), back.Triples()) {
		t.Error("file round trip mismatch")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.nt")); err == nil {
		t.Error("LoadFile of missing file should fail")
	}
}

func BenchmarkGraphAdd(b *testing.B) {
	g := NewGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Add(T(IRI(fmt.Sprintf("urn:s%d", i%1000)), IRI("urn:p"), Integer(int64(i))))
	}
}

// BenchmarkGraphAddAfterSnapshot measures the first write after a
// snapshot on a 100k-triple graph: the root fork plus the copy of every
// node on the written path.
func BenchmarkGraphAddAfterSnapshot(b *testing.B) {
	g := buildSnapGraph(b, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Snapshot()
		g.Add(snapTriple(100000 + i))
	}
}

func BenchmarkGraphMatchBySubject(b *testing.B) {
	g := NewGraph()
	for i := 0; i < 10000; i++ {
		g.Add(T(IRI(fmt.Sprintf("urn:s%d", i%100)), IRI(fmt.Sprintf("urn:p%d", i%7)), Integer(int64(i))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Count(IRI(fmt.Sprintf("urn:s%d", i%100)), Term{}, Term{})
	}
}
