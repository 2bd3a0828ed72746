package stream_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"qurator/internal/annotstore"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/ops"
	"qurator/internal/qvlang"
	"qurator/internal/rdf"
	"qurator/internal/stream"
)

// enact feeds n synthetic hits through a fresh enactor and returns the
// window results in emission order.
func enact(t *testing.T, cfg stream.Config, n int) []stream.WindowResult {
	t.Helper()
	e, err := stream.New(compilePaperView(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult)
	go func() {
		defer close(in)
		for i := 0; i < n; i++ {
			in <- stream.Item{ID: hit(i)}
		}
	}()
	var (
		results []stream.WindowResult
		done    = make(chan error, 1)
	)
	go func() { done <- e.Run(context.Background(), in, out) }()
	for r := range out {
		results = append(results, r)
	}
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	return results
}

// decidedItems flattens the decisions of all windows, asserting window
// order along the way.
func decidedItems(t *testing.T, results []stream.WindowResult) map[string]stream.Decision {
	t.Helper()
	decided := make(map[string]stream.Decision)
	for i, r := range results {
		if r.Seq != i {
			t.Fatalf("window %d emitted at position %d — out of order", r.Seq, i)
		}
		for _, d := range r.Decisions {
			if prev, dup := decided[d.Item]; dup {
				t.Fatalf("item %s decided twice: windows %d and %d", d.Item, prev.Window, d.Window)
			}
			decided[d.Item] = d
		}
	}
	return decided
}

func TestTumblingWindowsDecideEveryItemOnce(t *testing.T) {
	results := enact(t, stream.Config{Window: 5}, 20)
	if len(results) != 4 {
		t.Fatalf("got %d windows, want 4", len(results))
	}
	decided := decidedItems(t, results)
	if len(decided) != 20 {
		t.Fatalf("decided %d items, want 20", len(decided))
	}
	for _, r := range results {
		if r.Size != 5 || len(r.Decisions) != 5 || r.Partial {
			t.Errorf("window %d: size=%d decided=%d partial=%v", r.Seq, r.Size, len(r.Decisions), r.Partial)
		}
	}
	// The §5.1 classifier is collection-scoped: strong (even) items should
	// survive the filter, weak (odd) ones should not — within every window
	// the evidence split is identical, so the thresholds agree.
	for item, d := range decided {
		idx := hitIndex(rdf.IRI(item))
		if idx%2 == 0 && len(d.Outputs) == 0 {
			t.Errorf("strong item %s rejected", item)
		}
		if idx%2 == 1 && len(d.Outputs) != 0 {
			t.Errorf("weak item %s accepted into %v", item, d.Outputs)
		}
		if len(d.Classes) == 0 {
			t.Errorf("item %s has no class assignment", item)
		}
	}
	// Every window reports threshold statistics for the QA score tags.
	for _, r := range results {
		if len(r.Stats) == 0 {
			t.Errorf("window %d has no stats", r.Seq)
			continue
		}
		for key, s := range r.Stats {
			if s.N != 5 || s.Lo > s.Hi {
				t.Errorf("window %d stat %s = %+v", r.Seq, key, s)
			}
		}
	}
}

func TestSlidingWindowsDecideSlideNewest(t *testing.T) {
	// Window 4, slide 2 over 10 items: window 0 decides items 0–3, then
	// each fire decides 2 more in the context of the previous 2.
	results := enact(t, stream.Config{Window: 4, Slide: 2}, 10)
	decided := decidedItems(t, results)
	if len(decided) != 10 {
		t.Fatalf("decided %d items, want 10", len(decided))
	}
	if len(results) != 4 {
		t.Fatalf("got %d windows, want 4", len(results))
	}
	if len(results[0].Decisions) != 4 {
		t.Errorf("first window decided %d, want 4", len(results[0].Decisions))
	}
	for _, r := range results[1:] {
		if len(r.Decisions) != 2 {
			t.Errorf("window %d decided %d, want 2", r.Seq, len(r.Decisions))
		}
		if r.Size != 4 {
			t.Errorf("window %d enacted %d items, want 4 (2 context + 2 new)", r.Seq, r.Size)
		}
	}
	// Decisions arrive in arrival order across windows.
	next := 0
	for _, r := range results {
		for _, d := range r.Decisions {
			if idx := hitIndex(rdf.IRI(d.Item)); idx != next {
				t.Fatalf("decision order broken: got item %d, want %d", idx, next)
			}
			next++
		}
	}
}

func TestPartialFinalWindow(t *testing.T) {
	results := enact(t, stream.Config{Window: 8}, 11)
	if len(results) != 2 {
		t.Fatalf("got %d windows, want 2", len(results))
	}
	last := results[len(results)-1]
	if !last.Partial || last.Size != 3 || len(last.Decisions) != 3 {
		t.Errorf("final window = %+v, want partial of 3", last)
	}
	if len(decidedItems(t, results)) != 11 {
		t.Error("partial flush lost items")
	}

	dropped := enact(t, stream.Config{Window: 8, DropPartial: true}, 11)
	if len(dropped) != 1 {
		t.Fatalf("DropPartial: got %d windows, want 1", len(dropped))
	}
	if len(decidedItems(t, dropped)) != 8 {
		t.Error("DropPartial should decide exactly the complete window")
	}
}

func TestParallelWorkersPreserveWindowOrder(t *testing.T) {
	const n, window = 96, 8
	sequential := enact(t, stream.Config{Window: window, Parallelism: 1}, n)
	parallel := enact(t, stream.Config{Window: window, Parallelism: 8}, n)
	if len(sequential) != len(parallel) {
		t.Fatalf("window counts differ: %d vs %d", len(sequential), len(parallel))
	}
	seqDecided := decidedItems(t, sequential)
	parDecided := decidedItems(t, parallel)
	if len(parDecided) != n {
		t.Fatalf("parallel run decided %d items, want %d", len(parDecided), n)
	}
	// Parallel enactment must be observationally identical to sequential:
	// same windows, same decisions, same order.
	for item, sd := range seqDecided {
		pd, ok := parDecided[item]
		if !ok {
			t.Fatalf("parallel run never decided %s", item)
		}
		if pd.Window != sd.Window || fmt.Sprint(pd.Outputs) != fmt.Sprint(sd.Outputs) {
			t.Errorf("item %s: sequential %+v, parallel %+v", item, sd, pd)
		}
	}
}

func TestCancellationUnwindsPipeline(t *testing.T) {
	e, err := stream.New(compilePaperView(t), stream.Config{Window: 4, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult)
	done := make(chan error, 1)
	go func() { done <- e.Run(ctx, in, out) }()
	// Feed two windows, then cancel while the producer is mid-stream.
	for i := 0; i < 8; i++ {
		in <- stream.Item{ID: hit(i)}
	}
	cancel()
	for range out {
	}
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not unwind after cancellation")
	}
}

func TestEnactmentErrorCancelsRun(t *testing.T) {
	// An annotator that fails as soon as it sees an item of the second
	// window makes that window's enactment fail.
	failing := ops.AnnotatorFunc{
		ClassIRI: ontology.ImprintOutputAnnotation,
		Types:    identityAnnotator().Provides(),
		Fn: func(items []evidence.Item, repo annotstore.Store) error {
			for _, it := range items {
				if hitIndex(it) >= 4 {
					return fmt.Errorf("poison item %v", it)
				}
			}
			return identityAnnotator().Annotate(items, repo)
		},
	}
	c := compileViewXML(t, qvlang.PaperViewXML, failing)
	e, err := stream.New(c, stream.Config{Window: 4, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult)
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background(), in, out) }()
	go func() {
		defer close(in)
		for i := 0; i < 16; i++ {
			select {
			case in <- stream.Item{ID: hit(i)}:
			case <-time.After(5 * time.Second):
				return
			}
		}
	}()
	var got []stream.WindowResult
	for r := range out {
		got = append(got, r)
	}
	err = <-done
	if err == nil || !strings.Contains(err.Error(), "poison") {
		t.Fatalf("Run = %v, want the poison-item error", err)
	}
	for _, r := range got {
		if r.Seq > 0 {
			t.Errorf("window %d emitted after the failing window", r.Seq)
		}
	}
}

func TestSkipFailedWindowsReportsAndContinues(t *testing.T) {
	// Same poison as TestEnactmentErrorCancelsRun — items 4–7 blow up the
	// annotator — but with SkipFailedWindows the stream survives: the
	// poisoned window is reported failed-and-undecided, its neighbours
	// decide normally, and Run returns clean.
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
	c := compileViewXML(t, qvlang.PaperViewXML, failing)
	e, err := stream.New(c, stream.Config{Window: 4, SkipFailedWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult)
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background(), in, out) }()
	go func() {
		defer close(in)
		for i := 0; i < 12; i++ {
			in <- stream.Item{ID: hit(i)}
		}
	}()
	var results []stream.WindowResult
	for r := range out {
		results = append(results, r)
	}
	if err := <-done; err != nil {
		t.Fatalf("Run with SkipFailedWindows = %v, want nil", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d windows, want 3", len(results))
	}
	for i, r := range results {
		if r.Seq != i {
			t.Fatalf("window %d emitted at position %d", r.Seq, i)
		}
	}
	bad := results[1]
	if !bad.Failed || !strings.Contains(bad.Error, "poison") || len(bad.Decisions) != 0 || bad.Size != 4 {
		t.Errorf("failed window = %+v, want Failed with the poison error and no decisions", bad)
	}
	for _, i := range []int{0, 2} {
		r := results[i]
		if r.Failed || len(r.Decisions) != 4 {
			t.Errorf("healthy window %d = failed=%v decided=%d, want 4 decisions", r.Seq, r.Failed, len(r.Decisions))
		}
	}
}

func TestDuplicateArrivalRefreshesWithoutGrowth(t *testing.T) {
	e, err := stream.New(compilePaperView(t), stream.Config{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult)
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background(), in, out) }()
	go func() {
		defer close(in)
		in <- stream.Item{ID: hit(0)}
		in <- stream.Item{ID: hit(1)}
		in <- stream.Item{ID: hit(0)} // duplicate: must not fill a slot
		in <- stream.Item{ID: hit(2)}
		in <- stream.Item{ID: hit(3)}
	}()
	var results []stream.WindowResult
	for r := range out {
		results = append(results, r)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d windows, want 1", len(results))
	}
	if results[0].Size != 4 || len(results[0].Decisions) != 4 {
		t.Errorf("window = %+v, want 4 distinct items", results[0])
	}
}

func TestConfigValidation(t *testing.T) {
	c := compilePaperView(t)
	if _, err := stream.New(nil, stream.Config{Window: 4}); err == nil {
		t.Error("nil compiled view accepted")
	}
	if _, err := stream.New(c, stream.Config{}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := stream.New(c, stream.Config{Window: 4, Slide: 5}); err == nil {
		t.Error("slide > window accepted")
	}
	if _, err := stream.New(c, stream.Config{Window: 4, Slide: -1}); err == nil {
		t.Error("negative slide accepted")
	}
	e, err := stream.New(c, stream.Config{Window: 4, Parallelism: -3})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Config(); got.Parallelism != 1 || got.Slide != 4 {
		t.Errorf("normalised config = %+v", got)
	}
	if p := e.Plans()[0]; len(p.QAs) != 3 {
		t.Errorf("plan = %+v", p)
	}
}

// TestProcessorTimeoutStaysOnStreamPlan: Config.ProcessorTimeout bounds
// the stream's own plan and leaves the caller's compiled workflow — which
// batch enactments may share — untouched.
func TestProcessorTimeoutStaysOnStreamPlan(t *testing.T) {
	c := compilePaperView(t)
	if _, err := stream.New(c, stream.Config{Window: 4, ProcessorTimeout: time.Second}); err != nil {
		t.Fatal(err)
	}
	if got := c.Workflow.ProcessorTimeout(); got != 0 {
		t.Errorf("compiled workflow timeout = %v after stream.New, want 0", got)
	}
}

// TestInlineEvidenceStats: a stream carrying inline numeric evidence
// reports per-window statistics bit-identical to ColumnStats over the
// exact window contents, across sliding window boundaries.
func TestInlineEvidenceStats(t *testing.T) {
	e, err := stream.New(compilePaperView(t), stream.Config{Window: 3, Slide: 1})
	if err != nil {
		t.Fatal(err)
	}
	key := ontology.Q("inlineScore")
	vals := []float64{2, 9, 4, 25, 1, 16, 8}
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult)
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background(), in, out) }()
	go func() {
		defer close(in)
		for i, v := range vals {
			in <- stream.Item{
				ID:       hit(i),
				Evidence: map[evidence.Key]evidence.Value{key: evidence.Float(v)},
			}
		}
	}()
	var results []stream.WindowResult
	for r := range out {
		results = append(results, r)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var checked int
	for _, r := range results {
		if r.Partial {
			continue
		}
		s, ok := r.Stats[key.Value()]
		if !ok {
			t.Fatalf("window %d lacks inline stats: %v", r.Seq, r.Stats)
		}
		// Exact window contents: with window 3 / slide 1, window w holds
		// vals[w : w+3].
		m := evidence.NewMap()
		for i := r.Seq; i < r.Seq+3; i++ {
			m.AddItem(hit(i))
			m.Set(hit(i), key, evidence.Float(vals[i]))
		}
		st := m.ColumnStats(key)
		want := stream.WindowStats{N: 3, Mean: st.Mean, StdDev: st.StdDev, Lo: st.Mean - st.StdDev, Hi: st.Mean + st.StdDev}
		if s != want {
			t.Errorf("window %d stats = %+v, want %+v", r.Seq, s, want)
		}
		checked++
	}
	if checked < 4 {
		t.Fatalf("checked only %d complete windows", checked)
	}
}

// TestCountRefireReproducesStats: re-sending an already-decided item
// with identical evidence re-fires its count window as a superseding
// emission over unchanged content, so its statistics must be
// bit-identical to the original emission's — evidence and QA tags alike.
func TestCountRefireReproducesStats(t *testing.T) {
	key := ontology.Q("inlineScore")
	vals := []float64{0.1, 0.7, 0.2, 0.9, 0.35, 0.61, 0.05, 0.83}
	var items []stream.Item
	for i, v := range vals {
		items = append(items, stream.Item{
			ID:       hit(i),
			Evidence: map[evidence.Key]evidence.Value{key: evidence.Float(v)},
		})
	}
	items = append(items, items[3])
	results := enactItems(t, stream.Config{Window: len(vals)}, items)
	if len(results) != 2 || results[0].Late || !results[1].Late {
		t.Fatalf("got %d results, want an original emission and one superseding re-fire", len(results))
	}
	if _, ok := results[0].Stats[key.Value()]; !ok {
		t.Fatalf("original emission lacks inline stats: %v", results[0].Stats)
	}
	if !reflect.DeepEqual(results[0].Stats, results[1].Stats) {
		t.Errorf("re-fire stats differ from the original's:\noriginal: %+v\nre-fire:  %+v", results[0].Stats, results[1].Stats)
	}
}

// TestBackpressure: with a bounded pipeline and a consumer that refuses to
// read, the producer must block rather than buffer unboundedly.
func TestBackpressure(t *testing.T) {
	e, err := stream.New(compilePaperView(t), stream.Config{Window: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult) // never read until cancel
	done := make(chan error, 1)
	go func() { done <- e.Run(ctx, in, out) }()

	var accepted int
	var mu sync.Mutex
	stalled := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case in <- stream.Item{ID: hit(i)}:
				mu.Lock()
				accepted++
				mu.Unlock()
			case <-time.After(500 * time.Millisecond):
				close(stalled)
				return
			}
		}
	}()
	<-stalled
	mu.Lock()
	n := accepted
	mu.Unlock()
	// Capacity of the stalled pipeline: live window + jobs buffer + worker
	// + results buffer + reorder ≈ a few windows, nowhere near unbounded.
	if n > 20 {
		t.Errorf("producer pushed %d items into a stalled pipeline", n)
	}
	cancel()
	for range out {
	}
	<-done
}
