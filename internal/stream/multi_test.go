package stream_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"qurator/internal/annotstore"
	"qurator/internal/binding"
	"qurator/internal/compiler"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/ops"
	"qurator/internal/qvlang"
	"qurator/internal/rdf"
	"qurator/internal/services"
	"qurator/internal/stream"
)

// namedPaperView is the §5.1 paper view under a different name and filter
// threshold — same annotator, same QA set, so its quality prefix merges
// with the original's.
func namedPaperView(name, threshold string) string {
	xml := strings.ReplaceAll(qvlang.PaperViewXML,
		`name="protein-id-quality"`, fmt.Sprintf("name=%q", name))
	return strings.ReplaceAll(xml, "HR_MC &gt; 20", "HR_MC &gt; "+threshold)
}

// reducedViewXML shares the paper view's annotator and its HR-only QA but
// nothing else: a partial-overlap sibling.
func reducedViewXML(name string) string {
	return fmt.Sprintf(`<QualityView name=%q>
  <Annotator servicename="ImprintOutputAnnotator"
             servicetype="q:ImprintOutputAnnotation">
    <variables repositoryRef="cache" persistent="false">
      <var evidence="q:HitRatio"/>
      <var evidence="q:Coverage"/>
      <var evidence="q:Masses"/>
      <var evidence="q:PeptidesCount"/>
    </variables>
  </Annotator>
  <QualityAssertion servicename="HR score"
                    servicetype="q:HRScoreAssertion"
                    tagname="HR"
                    tagsyntype="q:score">
    <variables repositoryRef="cache">
      <var variablename="hr" evidence="q:HitRatio"/>
    </variables>
  </QualityAssertion>
  <action name="keep scored">
    <filter>
      <condition>HR &gt; 10</condition>
    </filter>
  </action>
</QualityView>`, name)
}

// runEnactor feeds n synthetic hits through the enactor and returns the
// emitted window results in order.
func runEnactor(t *testing.T, e *stream.Enactor, cfg stream.Config, n int) []stream.WindowResult {
	t.Helper()
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult)
	go func() {
		defer close(in)
		for i := 0; i < n; i++ {
			in <- stream.Item{ID: hit(i)}
		}
	}()
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background(), in, out) }()
	var results []stream.WindowResult
	for r := range out {
		results = append(results, r)
	}
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	return results
}

// mergeCompiled compiles each view XML on its own stack (as quratord
// would) and merges the set.
func mergeCompiled(t *testing.T, annotator ops.Annotator, xmls ...string) *compiler.MultiView {
	t.Helper()
	views := make([]*compiler.Compiled, 0, len(xmls))
	for _, xml := range xmls {
		views = append(views, compileViewXML(t, xml, annotator))
	}
	mv, err := compiler.MergeViews(views...)
	if err != nil {
		t.Fatalf("MergeViews: %v", err)
	}
	return mv
}

// TestMultiViewStreamMatchesIndependentStreams is the streaming face of
// the MQO equivalence property: a merged multi-view stream must emit, for
// every member view, exactly the window results an independent
// single-view stream over the same items emits — same windows, same
// decisions, same statistics — while enacting each window only once.
func TestMultiViewStreamMatchesIndependentStreams(t *testing.T) {
	xmls := []string{
		namedPaperView("stream-A", "20"),
		namedPaperView("stream-B", "40"),
		reducedViewXML("stream-C"),
	}
	const n = 10
	cfg := stream.Config{Window: 4, Parallelism: 2}

	independent := make(map[string][]stream.WindowResult)
	for _, xml := range xmls {
		c := compileViewXML(t, xml, identityAnnotator())
		e, err := stream.New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		independent[c.Name()] = runEnactor(t, e, cfg, n)
	}

	mv := mergeCompiled(t, identityAnnotator(), xmls...)
	if mv.SharedPrefixes() == 0 {
		t.Fatalf("merged stream plan shares nothing: %s", mv.Describe())
	}
	me, err := stream.NewMulti(mv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(me.Plans()); got != len(xmls) {
		t.Fatalf("Plans() = %d entries, want %d", got, len(xmls))
	}
	merged := make(map[string][]stream.WindowResult)
	for _, r := range runEnactor(t, me, cfg, n) {
		merged[r.View] = append(merged[r.View], r)
	}

	if len(merged) != len(independent) {
		t.Fatalf("merged stream emitted views %v, want %d views", keysOf(merged), len(independent))
	}
	for view, want := range independent {
		got := merged[view]
		if len(got) != len(want) {
			t.Fatalf("view %s: %d merged windows, want %d", view, len(got), len(want))
		}
		for i := range want {
			if got[i].View != view {
				t.Fatalf("view %s window %d attributed to %q", view, i, got[i].View)
			}
			// Independent single-view windows carry no attribution; strip
			// the merged stream's before comparing the rest byte-for-byte.
			norm := got[i]
			norm.View = ""
			w, _ := json.Marshal(want[i])
			g, _ := json.Marshal(norm)
			if string(w) != string(g) {
				t.Errorf("view %s window %d differs:\nindependent %s\nmerged      %s", view, i, w, g)
			}
		}
	}
}

func keysOf(m map[string][]stream.WindowResult) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// mapJournal is an in-memory WindowJournal.
type mapJournal struct {
	mu sync.Mutex
	m  map[string]stream.WindowResult
}

func newMapJournal() *mapJournal {
	return &mapJournal{m: make(map[string]stream.WindowResult)}
}

func (j *mapJournal) Lookup(key string) (stream.WindowResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.m[key]
	return r, ok
}

func (j *mapJournal) Commit(key string, res stream.WindowResult) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.m[key] = res
	return nil
}

// TestMultiViewJournalKeysArePerView: a merged stream journals every
// member view under the SAME key an independent single-view stream would
// use. So (1) windows one view already emitted before the merge replay
// while the other members commit fresh, (2) a later merged run replays
// everything without re-enacting, and (3) a single-view stream replays a
// view's merged emissions unattributed, with the merged decisions.
func TestMultiViewJournalKeysArePerView(t *testing.T) {
	xmlA, xmlC := namedPaperView("stream-A", "20"), reducedViewXML("stream-C")
	const n = 8
	j := newMapJournal()
	cfg := stream.Config{Window: 4, Journal: j}

	// An independent stream of C emits (and journals) its windows first.
	ce, err := stream.New(compileViewXML(t, xmlC, identityAnnotator()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cResults := runEnactor(t, ce, cfg, n)
	if len(j.m) != 2 {
		t.Fatalf("single-view run journaled %d windows, want 2", len(j.m))
	}

	// The merged A+C stream over the same items: C's windows replay the
	// journaled emissions, A's enact and commit fresh.
	me, err := stream.NewMulti(mergeCompiled(t, identityAnnotator(), xmlA, xmlC), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var aFresh, cReplayed int
	aMerged := make(map[int][]stream.Decision)
	for _, r := range runEnactor(t, me, cfg, n) {
		switch r.View {
		case "stream-A":
			if r.Replayed {
				t.Errorf("window %d of A replayed with an empty journal for A", r.Seq)
			}
			aMerged[r.Seq] = r.Decisions
			aFresh++
		case "stream-C":
			if !r.Replayed {
				t.Errorf("window %d of C enacted fresh despite its journal entry", r.Seq)
			}
			w, _ := json.Marshal(cResults[r.Seq].Decisions)
			g, _ := json.Marshal(r.Decisions)
			if string(w) != string(g) {
				t.Errorf("window %d of C: replayed decisions differ from the journaled originals", r.Seq)
			}
			cReplayed++
		default:
			t.Errorf("unexpected view %q", r.View)
		}
	}
	if aFresh != 2 || cReplayed != 2 {
		t.Fatalf("A fresh=%d C replayed=%d, want 2 and 2", aFresh, cReplayed)
	}
	if len(j.m) != 4 {
		t.Fatalf("journal holds %d entries after the merged run, want 4", len(j.m))
	}

	// A second merged run is pure replay: every window of every view.
	me2, err := stream.NewMulti(mergeCompiled(t, identityAnnotator(), xmlA, xmlC), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runEnactor(t, me2, cfg, n) {
		if !r.Replayed {
			t.Errorf("window %d of %s not replayed on the second merged run", r.Seq, r.View)
		}
	}

	// A single-view stream of A over the same journal: every window
	// replays A's merged emission, unattributed like any single-view
	// result.
	ae, err := stream.New(compileViewXML(t, xmlA, identityAnnotator()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	aResults := runEnactor(t, ae, cfg, n)
	if len(aResults) != len(aMerged) {
		t.Fatalf("single-view A run emitted %d windows, want %d", len(aResults), len(aMerged))
	}
	for _, r := range aResults {
		if !r.Replayed || r.View != "" {
			t.Errorf("window %d of single-view A: replayed=%v view=%q, want replayed and unattributed", r.Seq, r.Replayed, r.View)
		}
		w, _ := json.Marshal(aMerged[r.Seq])
		g, _ := json.Marshal(r.Decisions)
		if string(w) != string(g) {
			t.Errorf("window %d of single-view A: replayed decisions differ from the merged run's", r.Seq)
		}
	}
	if len(j.m) != 4 {
		t.Fatalf("journal holds %d entries after the single-view replay, want 4", len(j.m))
	}
}

// TestMultiViewSkipFailedWindows: a window whose shared annotator fails
// is reported failed once PER VIEW (each member's items went undecided),
// and the stream — and its healthy windows — keep going.
func TestMultiViewSkipFailedWindows(t *testing.T) {
	failing := ops.AnnotatorFunc{
		ClassIRI: ontology.ImprintOutputAnnotation,
		Types:    identityAnnotator().Provides(),
		Fn: func(items []evidence.Item, repo annotstore.Store) error {
			for _, it := range items {
				if idx := hitIndex(it); idx >= 4 && idx < 8 {
					return fmt.Errorf("poison item %v", it)
				}
			}
			return identityAnnotator().Annotate(items, repo)
		},
	}
	mv := mergeCompiled(t, failing, namedPaperView("stream-A", "20"), reducedViewXML("stream-C"))
	e, err := stream.NewMulti(mv, stream.Config{Window: 4, SkipFailedWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	results := runEnactor(t, e, stream.Config{}, 12)
	if len(results) != 6 {
		t.Fatalf("got %d results, want 3 windows × 2 views", len(results))
	}
	perView := make(map[string][]stream.WindowResult)
	for _, r := range results {
		perView[r.View] = append(perView[r.View], r)
	}
	for view, rs := range perView {
		if len(rs) != 3 {
			t.Fatalf("view %s emitted %d windows, want 3", view, len(rs))
		}
		bad := rs[1]
		if !bad.Failed || !strings.Contains(bad.Error, "poison") || len(bad.Decisions) != 0 {
			t.Errorf("view %s failed window = %+v, want Failed with the poison error", view, bad)
		}
		for _, i := range []int{0, 2} {
			if rs[i].Failed || len(rs[i].Decisions) != 4 {
				t.Errorf("view %s healthy window %d = failed=%v decided=%d",
					view, rs[i].Seq, rs[i].Failed, len(rs[i].Decisions))
			}
		}
	}
}

// TestHandlerMergedViews drives POST /stream/enact?views=a,b through the
// HTTP endpoint: both views' summaries arrive view-attributed, and bad
// view sets are rejected up front.
func TestHandlerMergedViews(t *testing.T) {
	xmls := map[string]string{
		"stream-A": namedPaperView("stream-A", "20"),
		"stream-C": reducedViewXML("stream-C"),
	}
	compile := func(view string) (*compiler.Compiled, error) {
		xml, ok := xmls[view]
		if !ok {
			return nil, fmt.Errorf("unknown view %q", view)
		}
		return compileViewXML(t, xml, identityAnnotator()), nil
	}
	srv := httptest.NewServer(stream.Handler(compile))
	t.Cleanup(srv.Close)

	var body strings.Builder
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&body, "{\"item\":\"urn:lsid:test.org:hit:%d\"}\n", i)
	}
	resp, err := http.Post(srv.URL+"/stream/enact?views=stream-A,stream-C&window=4",
		"application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	summaries := make(map[string]int) // view → windows
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l struct {
			View    string `json:"view"`
			Decided *int   `json:"decided"`
			Error   string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if l.Error != "" {
			t.Fatalf("stream reported error: %s", l.Error)
		}
		if l.Decided != nil {
			if *l.Decided != 4 {
				t.Errorf("summary decided = %d, want 4: %s", *l.Decided, sc.Text())
			}
			summaries[l.View]++
		}
	}
	if summaries["stream-A"] != 2 || summaries["stream-C"] != 2 {
		t.Errorf("window summaries per view = %v, want 2 each", summaries)
	}

	for _, q := range []string{
		"views=stream-A,ghost&window=4",    // unknown member
		"views=stream-A,stream-A&window=4", // duplicate view name
		"views=,&window=4",                 // empty set
	} {
		resp, err := http.Post(srv.URL+"/stream/enact?"+q, "application/x-ndjson", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestSingleViewUnattributed pins the single-view wire format: a fresh
// single-view stream — a one-member merged plan underneath — emits
// results with an empty View, so neither the result JSON nor the NDJSON
// window summaries carry a "view" field.
func TestSingleViewUnattributed(t *testing.T) {
	cfg := stream.Config{Window: 4}
	e, err := stream.New(compileViewXML(t, namedPaperView("stream-A", "20"), identityAnnotator()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := runEnactor(t, e, cfg, 8)
	if len(results) != 2 {
		t.Fatalf("got %d windows, want 2", len(results))
	}
	ch := make(chan stream.WindowResult, len(results))
	for _, r := range results {
		if r.View != "" || r.Replayed || r.Failed || len(r.Decisions) != 4 {
			t.Errorf("window %d = view %q replayed=%v failed=%v decided=%d, want a fresh unattributed window of 4",
				r.Seq, r.View, r.Replayed, r.Failed, len(r.Decisions))
		}
		if b, _ := json.Marshal(r); strings.Contains(string(b), `"view"`) {
			t.Errorf("window %d JSON carries a view field: %s", r.Seq, b)
		}
		ch <- r
	}
	close(ch)
	var buf strings.Builder
	if err := stream.WriteResults(&buf, ch, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"view"`) {
		t.Errorf("NDJSON output carries a view field:\n%s", buf.String())
	}
}

// hitRatioViewXML declares one annotator per {servicename, servicetype}
// pair, each providing q:HitRatio in the cache repository, and a QA
// reading that cell.
func hitRatioViewXML(name string, annotators ...[2]string) string {
	var anns strings.Builder
	for _, a := range annotators {
		fmt.Fprintf(&anns, `
  <Annotator servicename=%q servicetype=%q>
    <variables repositoryRef="cache" persistent="false">
      <var evidence="q:HitRatio"/>
    </variables>
  </Annotator>`, a[0], a[1])
	}
	return fmt.Sprintf(`<QualityView name=%q>%s
  <QualityAssertion servicename="HR score"
                    servicetype="q:HRScoreAssertion"
                    tagname="HR"
                    tagsyntype="q:score">
    <variables repositoryRef="cache">
      <var variablename="hr" evidence="q:HitRatio"/>
    </variables>
  </QualityAssertion>
  <action name="keep scored">
    <filter>
      <condition>HR &gt; 10</condition>
    </filter>
  </action>
</QualityView>`, name, anns.String())
}

// evidenceCodeView compiles a view whose stack also deploys a no-op
// q:EvidenceCodeAnnotation annotator.
func evidenceCodeView(t *testing.T, xml string) *compiler.Compiled {
	t.Helper()
	stack := compileStack(t, identityAnnotator())
	stack.Resolver.Local.Add(&services.AnnotatorService{
		ServiceName:  "EvidenceCodeAnnotator",
		Annotator:    ops.AnnotatorFunc{ClassIRI: ontology.EvidenceCodeAnnotation, Types: []rdf.Term{ontology.HitRatio}},
		Repositories: stack.Repositories,
	})
	stack.Bindings.MustBind(binding.Binding{Concept: ontology.EvidenceCodeAnnotation, Kind: binding.ServiceResource, Locator: "local:EvidenceCodeAnnotator"})
	v, err := qvlang.Parse([]byte(xml))
	if err != nil {
		t.Fatal(err)
	}
	r, err := qvlang.Resolve(v, ontology.NewIQModel())
	if err != nil {
		t.Fatal(err)
	}
	c, err := stack.Compile(r)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

// TestOneViewSharedCellMerges: the merge conflict rule ("two annotators
// provide the same cell") applies across views only. A view's own
// enrichment waits for all of its annotators, so one view with two
// annotators writing one cell merges on its own and streams; two views
// whose distinct annotators write one cell are still refused.
func TestOneViewSharedCellMerges(t *testing.T) {
	imprint := [2]string{"ImprintOutputAnnotator", "q:ImprintOutputAnnotation"}
	code := [2]string{"EvidenceCodeAnnotator", "q:EvidenceCodeAnnotation"}
	c := evidenceCodeView(t, hitRatioViewXML("dup", imprint, code))
	if _, err := compiler.MergeViews(c); err != nil {
		t.Fatalf("MergeViews of one view: %v", err)
	}
	cfg := stream.Config{Window: 4}
	e, err := stream.New(c, cfg)
	if err != nil {
		t.Fatalf("stream.New: %v", err)
	}
	for _, r := range runEnactor(t, e, cfg, 8) {
		if r.Failed || len(r.Decisions) != 4 {
			t.Errorf("window %d: failed=%v decided=%d, want 4 decisions", r.Seq, r.Failed, len(r.Decisions))
		}
	}

	_, err = compiler.MergeViews(
		evidenceCodeView(t, hitRatioViewXML("imprint-only", imprint)),
		evidenceCodeView(t, hitRatioViewXML("code-only", code)))
	if err == nil || !strings.Contains(err.Error(), "cannot merge") {
		t.Errorf("views whose distinct annotators write one cell: err = %v, want a merge refusal", err)
	}
}
