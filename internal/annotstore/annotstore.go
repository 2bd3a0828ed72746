// Package annotstore implements Qurator's quality-annotation repositories
// (paper §3, §5): RDF-backed stores that maintain the mapping from data
// items to quality-evidence annotations and serve them back by
// (data, evidence type) key.
//
// Annotations are encoded as the paper's Figure 2 graph shape:
//
//	<item>  rdf:type           <DataEntity subclass>
//	<item>  q:containsEvidence <evidence node>
//	<node>  rdf:type           <QualityEvidence subclass>
//	<node>  q:evidenceValue    "literal value"
//	<node>  q:computedBy       <AnnotationFunction subclass>
//
// Repositories come in two flavours reflecting §4's discussion: persistent
// stores for long-lived evidence (e.g. curation credibility for a stable
// database) and per-run caches for evidence whose scope is a single
// process execution (e.g. Imprint's Hit Ratio). Both expose the same API;
// the Registry keys them by the names that quality views reference
// (repositoryRef="cache").
package annotstore

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"qurator/internal/evidence"
	"qurator/internal/mstore"
	"qurator/internal/ontology"
	"qurator/internal/rdf"
	"qurator/internal/sparql"
)

// Annotation is one quality-evidence statement about a data item.
type Annotation struct {
	// Item is the annotated data item (LSID-wrapped URI).
	Item evidence.Item
	// Type is the QualityEvidence subclass of the annotation,
	// e.g. q:HitRatio.
	Type rdf.Term
	// Value is the evidence value.
	Value evidence.Value
	// Source optionally names the AnnotationFunction class that computed
	// the value.
	Source rdf.Term
	// EntityClass optionally types the item as a DataEntity subclass
	// (e.g. q:ImprintHitEntry).
	EntityClass rdf.Term
}

// Store is the common read/write API all annotation repositories expose
// (paper §5: "all of these repositories are accessed through the same
// read/write API"). Local in-memory repositories and remote HTTP-backed
// ones implement it interchangeably.
type Store interface {
	// Name is the repository name referenced by quality views.
	Name() string
	// Persistent reports whether the store is long-lived (vs. a per-run
	// cache cleared between process executions).
	Persistent() bool
	// Put stores (or overwrites) an annotation.
	Put(a Annotation) error
	// Get retrieves the annotation value for (item, type).
	Get(item evidence.Item, typ rdf.Term) (evidence.Value, bool)
	// Enrich fills the map with stored values of the requested types for
	// every item, returning the number of values added.
	Enrich(m *evidence.Map, types []rdf.Term) int
	// Items returns all annotated items, sorted.
	Items() []evidence.Item
	// Len returns the number of (item, type) annotations stored.
	Len() int
	// Clear removes every annotation.
	Clear()
	// Query runs a SPARQL query against the annotation graph.
	Query(query string) (*sparql.Result, error)
}

// Repository is an in-memory annotation store. All methods are safe for
// concurrent use. Attaching a durable backend with Persist makes every
// mutation WAL-committed before it becomes visible; the read paths are
// unchanged either way.
type Repository struct {
	name       string
	persistent bool

	mu    sync.RWMutex
	graph *rdf.Graph
	// model, when set, validates evidence types against the IQ ontology.
	model *ontology.Ontology
	// store, when set, is the durable backend; graph aliases store.Graph()
	// so reads stay lock-free while writes go through the WAL.
	store *mstore.Store
	// observer, when set, is invoked (under the write lock) for every
	// successful Put — the quality cube's feed.
	observer func(Annotation, time.Time)
	// lastErr records a store write failure on a path whose signature
	// cannot return it (ExpireBefore); see Err.
	lastErr error
}

// New returns an empty repository. persistent records the §4 distinction
// between long-lived stores and per-run caches (a cache is expected to be
// Cleared between process executions); it also gates Registry.ClearCaches.
func New(name string, persistent bool) *Repository {
	return &Repository{name: name, persistent: persistent, graph: rdf.NewGraph()}
}

// WithModel attaches an IQ ontology used to validate evidence types on
// writes: the annotation type must be a subclass of q:QualityEvidence.
func (r *Repository) WithModel(m *ontology.Ontology) *Repository {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.model = m
	return r
}

// Name returns the repository name used in quality-view references.
func (r *Repository) Name() string { return r.name }

// Persistent reports whether the repository is long-lived (vs. a per-run
// cache).
func (r *Repository) Persistent() bool { return r.persistent }

// evidenceNode derives the deterministic IRI of the evidence node for an
// (item, type) pair, so that re-annotation overwrites rather than
// accumulates.
func evidenceNode(item evidence.Item, typ rdf.Term) rdf.Term {
	return rdf.IRI(item.Value() + "#evidence-" + ontology.LocalName(typ))
}

// Put stores (or overwrites) an annotation.
func (r *Repository) Put(a Annotation) error {
	if !a.Item.IsIRI() || a.Item.Value() == "" {
		return fmt.Errorf("annotstore: annotation item must be a non-empty IRI, got %v", a.Item)
	}
	if !a.Type.IsIRI() || a.Type.Value() == "" {
		return fmt.Errorf("annotstore: annotation type must be a non-empty IRI, got %v", a.Type)
	}
	if a.Value.IsNull() {
		return fmt.Errorf("annotstore: null value for %v / %v", a.Item, a.Type)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.model != nil && !r.model.IsSubClassOf(a.Type, ontology.QualityEvidence) {
		return fmt.Errorf("annotstore: %v is not a QualityEvidence subclass in the IQ model", a.Type)
	}

	node := evidenceNode(a.Item, a.Type)
	at := nowUTC()
	// Overwrite any previous value/source statements for this node.
	var dels []rdf.Triple
	r.graph.ForEachMatch(node, rdf.Term{}, rdf.Term{}, func(t rdf.Triple) bool {
		dels = append(dels, t)
		return true
	})
	typeIRI := rdf.IRI(rdf.RDFType)
	adds := []rdf.Triple{
		rdf.T(a.Item, ontology.ContainsEvidence, node),
		rdf.T(node, typeIRI, a.Type),
		rdf.T(node, ontology.EvidenceValue, a.Value.ToTerm()),
		stampTriple(node, at),
	}
	if !a.Source.IsZero() {
		adds = append(adds, rdf.T(node, ontology.ComputedBy, a.Source))
	}
	if !a.EntityClass.IsZero() {
		adds = append(adds, rdf.T(a.Item, typeIRI, a.EntityClass))
	}
	if err := r.applyLocked(dels, adds); err != nil {
		return err
	}
	if r.observer != nil {
		r.observer(a, at)
	}
	return nil
}

// applyLocked is the single mutation choke point: deletes first, then
// adds, through the durable store when one is attached (WAL-committed
// before the graph changes) or straight into the graph otherwise. The
// caller holds the write lock.
func (r *Repository) applyLocked(dels, adds []rdf.Triple) error {
	if r.store != nil {
		return r.store.Apply(adds, dels)
	}
	for _, t := range dels {
		r.graph.Remove(t)
	}
	_, err := r.graph.AddBatch(adds)
	return err
}

// Get retrieves the annotation value for (item, type); the boolean
// reports presence.
func (r *Repository) Get(item evidence.Item, typ rdf.Term) (evidence.Value, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	node := evidenceNode(item, typ)
	if !r.graph.Has(rdf.T(item, ontology.ContainsEvidence, node)) {
		return evidence.Null, false
	}
	val := r.graph.FirstObject(node, ontology.EvidenceValue)
	if val.IsZero() {
		return evidence.Null, false
	}
	return evidence.FromTerm(val), true
}

// Source returns the AnnotationFunction recorded for (item, type), or a
// zero Term.
func (r *Repository) Source(item evidence.Item, typ rdf.Term) rdf.Term {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.graph.FirstObject(evidenceNode(item, typ), ontology.ComputedBy)
}

// Enrich fills the annotation map with stored values of the requested
// evidence types for every item in the map — the Data Enrichment operator
// of §4.1 performs exactly this repository lookup keyed on d ∈ D, e ∈ E.
// It returns the number of values added.
func (r *Repository) Enrich(m *evidence.Map, types []rdf.Term) int {
	n := 0
	for _, item := range m.Items() {
		for _, typ := range types {
			if v, ok := r.Get(item, typ); ok {
				m.Set(item, typ, v)
				n++
			}
		}
	}
	return n
}

// Items returns all annotated items, sorted.
func (r *Repository) Items() []evidence.Item {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.graph.Subjects(ontology.ContainsEvidence, rdf.Term{})
}

// TypesOf returns the evidence types stored for an item, sorted.
func (r *Repository) TypesOf(item evidence.Item) []rdf.Term {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := map[rdf.Term]struct{}{}
	for _, node := range r.graph.Objects(item, ontology.ContainsEvidence) {
		typ := r.graph.FirstObject(node, rdf.IRI(rdf.RDFType))
		if !typ.IsZero() {
			seen[typ] = struct{}{}
		}
	}
	out := make([]rdf.Term, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return rdf.CompareTerms(out[i], out[j]) < 0 })
	return out
}

// Len returns the number of (item, type) annotations stored.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.graph.Cardinality(rdf.Term{}, ontology.ContainsEvidence, rdf.Term{})
}

// Clear removes every annotation; used between runs on cache repositories.
// With a durable backend the clear is WAL-logged like any other mutation
// (a store write failure is recorded in Err).
func (r *Repository) Clear() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store != nil {
		if err := r.store.Clear(); err != nil {
			r.lastErr = err
		}
		return
	}
	r.graph.Clear()
}

// Query runs a SPARQL query against the annotation graph — the paper's
// primary access path (§5). Evaluation runs over an O(1) snapshot, so an
// arbitrarily long query never blocks writers (Put/Clear/Load).
func (r *Repository) Query(query string) (*sparql.Result, error) {
	return sparql.Exec(r.Snapshot(), query)
}

// Snapshot returns an immutable O(1) view of the annotation graph. The
// repository lock is held only long enough to read the graph pointer
// (Load swaps it); snapshot reads themselves are lock-free.
func (r *Repository) Snapshot() *rdf.Snapshot {
	r.mu.RLock()
	g := r.graph
	r.mu.RUnlock()
	return g.Snapshot()
}

// Graph returns a snapshot copy of the underlying RDF graph.
func (r *Repository) Graph() *rdf.Graph {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.graph.Clone()
}

// WriteTurtle dumps the annotation graph in human-readable Turtle with
// the Qurator prefix declared.
func (r *Repository) WriteTurtle(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return rdf.WriteTurtle(w, r.graph, map[string]string{"q": ontology.QuratorNS})
}

// Save writes the repository to an N-Triples file.
func (r *Repository) Save(path string) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return rdf.SaveFile(path, r.graph)
}

// Load replaces the repository contents from an N-Triples file. With a
// durable backend the replacement is logged as a clear plus a bulk add,
// so it survives a restart like any other write.
func (r *Repository) Load(path string) error {
	g, err := rdf.LoadFile(path)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store == nil {
		r.graph = g
		return nil
	}
	if err := r.store.Clear(); err != nil {
		return err
	}
	_, err = r.store.AddBatch(g.Triples())
	return err
}

// Registry maps the repository names referenced by quality views
// (repositoryRef attributes) to stores.
type Registry struct {
	mu    sync.RWMutex
	repos map[string]Store
}

// NewRegistry returns a registry pre-populated with a persistent "default"
// repository and a per-run "cache" repository — the two roles §4
// distinguishes.
func NewRegistry() *Registry {
	reg := &Registry{repos: make(map[string]Store)}
	reg.Add(New("default", true))
	reg.Add(New("cache", false))
	return reg
}

// Add registers a store under its name, replacing any previous one.
func (reg *Registry) Add(r Store) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.repos[r.Name()] = r
}

// Get looks up a store by name.
func (reg *Registry) Get(name string) (Store, bool) {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	r, ok := reg.repos[name]
	return r, ok
}

// MustGet is Get that panics when the repository is unknown.
func (reg *Registry) MustGet(name string) Store {
	r, ok := reg.Get(name)
	if !ok {
		panic(fmt.Sprintf("annotstore: unknown repository %q", name))
	}
	return r
}

// Names returns the registered repository names, sorted.
func (reg *Registry) Names() []string {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	names := make([]string, 0, len(reg.repos))
	for n := range reg.repos {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ClearCaches clears every non-persistent repository — invoked between
// quality-process executions, since cache annotations are only valid for
// a single run (paper §4 / §5.1 persistent="false").
func (reg *Registry) ClearCaches() {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	for _, r := range reg.repos {
		if !r.Persistent() {
			r.Clear()
		}
	}
}
