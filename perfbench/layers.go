package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qurator/internal/annotstore"
	"qurator/internal/evidence"
	"qurator/internal/ops"
	"qurator/internal/rdf"
	"qurator/internal/services"
	"qurator/internal/stream"
	"qurator/internal/telemetry"
)

// Per-layer attribution. A traced run wraps the public interface of each
// layer in a timing decorator — services.QualityService,
// ops.QualityAssertion, ops.Annotator, annotstore.Store,
// stream.WindowJournal and the http.RoundTripper under the resilient
// client — and reads the span trees the workflow engine already records.
// Decorators only count while tracer.on is set, so the untraced quarters
// of a traced run pay one atomic load per call.

// clock accumulates calls (or units of work) and the time they took.
type clock struct{ n, ns atomic.Int64 }

func (c *clock) add(n int64, d time.Duration) {
	c.n.Add(n)
	c.ns.Add(int64(d))
}

func (c *clock) ms() float64 { return float64(c.ns.Load()) / 1e6 }

type tracer struct {
	on atomic.Bool

	svc       clock // QualityService.Invoke at the caller: in-process service or HTTP proxy
	svcFails  atomic.Int64
	srv       clock // QualityService.Invoke on the serving side of HTTP
	qa        clock // QualityAssertion.Assert
	qaItems   atomic.Int64
	ann       clock // Annotator.Annotate, store writes included
	put       clock // Store.Put
	enrich    clock // Store.Enrich; n counts values added
	http      clock // RoundTripper round trips, response body included
	httpBytes atomic.Int64
	commit    clock // WindowJournal.Commit
	lookups   atomic.Int64

	mu    sync.Mutex
	self  map[string]time.Duration // span self time by span kind
	spans map[string]int64         // span count by span kind
}

// Span kinds, by processor or span name.
const (
	kindWorkflow    = "workflow"
	kindQAProc      = "qa-proc"
	kindAnnProc     = "annotator-proc"
	kindEnrichProc  = "enrich-proc"
	kindAction      = "action"
	kindConsolidate = "consolidate"
	kindImprint     = "imprint"
	kindHost        = "ispider"
)

func spanKind(name string) string {
	switch {
	case strings.Contains(name, "QA:"):
		return kindQAProc
	case strings.Contains(name, "Annotator:"):
		return kindAnnProc
	case strings.Contains(name, "DataEnrichment"):
		return kindEnrichProc
	case strings.Contains(name, "Action:"):
		return kindAction
	case strings.Contains(name, "ConsolidateAssertions"):
		return kindConsolidate
	case name == "ProteinIdentification":
		return kindImprint
	case name == "PedroRetrieve" || name == "ImprintHitsAdapter" || name == "GOARetrieval":
		return kindHost
	default:
		// Workflow and enactment spans, the embedded view processor and
		// the benchmark's own root: scheduling and glue.
		return kindWorkflow
	}
}

// addTree charges every span of one enactment's trace to its kind by
// self time: its duration minus the part its children cover.
func (t *tracer) addTree(tree telemetry.TraceTree) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.self == nil {
		t.self = map[string]time.Duration{}
		t.spans = map[string]int64{}
	}
	var walk func(n *telemetry.SpanTree)
	walk = func(n *telemetry.SpanTree) {
		kind := spanKind(n.Name)
		t.self[kind] += selfTime(n)
		t.spans[kind]++
		for _, c := range n.Children {
			walk(c)
		}
	}
	if tree.Root != nil {
		walk(tree.Root)
	}
}

// selfTime is a span's duration minus the union of its children's
// intervals (children may overlap when processors run concurrently).
func selfTime(n *telemetry.SpanTree) time.Duration {
	covered := time.Duration(0)
	var curStart, curEnd time.Time
	for _, c := range n.Children { // sorted by start
		s, e := c.Start, c.End
		if s.Before(n.Start) {
			s = n.Start
		}
		if e.After(n.End) {
			e = n.End
		}
		if !e.After(s) {
			continue
		}
		if curEnd.IsZero() || s.After(curEnd) {
			covered += curEnd.Sub(curStart)
			curStart, curEnd = s, e
		} else if e.After(curEnd) {
			curEnd = e
		}
	}
	covered += curEnd.Sub(curStart)
	return n.Duration() - covered
}

func (t *tracer) selfMS(kinds ...string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, k := range kinds {
		d += t.self[k]
	}
	return float64(d) / 1e6
}

func (t *tracer) spanCount(kinds ...string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, k := range kinds {
		n += t.spans[k]
	}
	return n
}

// tracedEnactment runs fn under a private span recorder and a root span
// of the benchmark's own; with a tracer switched on, the recorded tree
// is charged to the layers. It returns the root span's trace ID.
func tracedEnactment(ctx context.Context, tr *tracer, fn func(ctx context.Context) error) (string, error) {
	var rec *telemetry.Recorder
	if tr != nil && tr.on.Load() {
		rec = telemetry.NewRecorder(1)
		ctx = telemetry.WithRecorder(ctx, rec)
	}
	ctx, root := telemetry.StartSpan(ctx, "bench:enact")
	err := fn(ctx)
	root.EndErr(err)
	if rec != nil && err == nil {
		if tree, ok := rec.Trace(root.TraceID); ok {
			tr.addTree(tree)
		}
	}
	return root.TraceID, err
}

// timedService decorates services.QualityService.
type timedService struct {
	services.QualityService
	tr *tracer
	c  *clock
}

func (s timedService) Invoke(ctx context.Context, req *services.Envelope) (*services.Envelope, error) {
	if !s.tr.on.Load() {
		return s.QualityService.Invoke(ctx, req)
	}
	began := time.Now()
	resp, err := s.QualityService.Invoke(ctx, req)
	s.c.add(1, time.Since(began))
	if err != nil {
		s.tr.svcFails.Add(1)
	}
	return resp, err
}

// decorateOperators wraps the operator inside every deployed assertion
// and annotator service. Compiled processors hold the service values, so
// this reaches views compiled before or after it.
func decorateOperators(reg *services.Registry, tr *tracer) {
	for _, info := range reg.List() {
		svc, _ := reg.Get(info.Name)
		switch s := svc.(type) {
		case *services.AssertionService:
			s.QA = wrapQA(s.QA, tr)
		case *services.AnnotatorService:
			s.Annotator = wrapAnnotator(s.Annotator, tr)
		}
	}
}

// wrapServices replaces every service of a registry with its timed
// decorator, counting into c.
func wrapServices(reg *services.Registry, tr *tracer, c *clock) {
	for _, info := range reg.List() {
		if svc, ok := reg.Get(info.Name); ok {
			reg.Add(timedService{QualityService: svc, tr: tr, c: c})
		}
	}
}

// timedQA decorates ops.QualityAssertion.
type timedQA struct {
	ops.QualityAssertion
	tr *tracer
}

func (q timedQA) Assert(m *evidence.Map) error {
	if !q.tr.on.Load() {
		return q.QualityAssertion.Assert(m)
	}
	began := time.Now()
	err := q.QualityAssertion.Assert(m)
	q.tr.qa.add(1, time.Since(began))
	q.tr.qaItems.Add(int64(m.Len()))
	return err
}

// timedItemWiseQA keeps the ops.ItemWise declaration visible, so the
// decorated QA is scoped (and sharded) exactly like the original.
type timedItemWiseQA struct{ timedQA }

func (q timedItemWiseQA) ItemWise() bool {
	return q.QualityAssertion.(ops.ItemWise).ItemWise()
}

func wrapQA(qa ops.QualityAssertion, tr *tracer) ops.QualityAssertion {
	if tr == nil {
		return qa
	}
	t := timedQA{QualityAssertion: qa, tr: tr}
	if _, ok := qa.(ops.ItemWise); ok {
		return timedItemWiseQA{t}
	}
	return t
}

// timedAnnotator decorates ops.Annotator.
type timedAnnotator struct {
	ops.Annotator
	tr *tracer
}

func (a timedAnnotator) Annotate(items []evidence.Item, repo annotstore.Store) error {
	if !a.tr.on.Load() {
		return a.Annotator.Annotate(items, repo)
	}
	began := time.Now()
	err := a.Annotator.Annotate(items, repo)
	a.tr.ann.add(1, time.Since(began))
	return err
}

type timedItemWiseAnnotator struct{ timedAnnotator }

func (a timedItemWiseAnnotator) ItemWise() bool {
	return a.Annotator.(ops.ItemWise).ItemWise()
}

func wrapAnnotator(a ops.Annotator, tr *tracer) ops.Annotator {
	if tr == nil {
		return a
	}
	t := timedAnnotator{Annotator: a, tr: tr}
	if _, ok := a.(ops.ItemWise); ok {
		return timedItemWiseAnnotator{t}
	}
	return t
}

// timedStore decorates annotstore.Store.
type timedStore struct {
	annotstore.Store
	tr *tracer
}

func (s timedStore) Put(a annotstore.Annotation) error {
	if !s.tr.on.Load() {
		return s.Store.Put(a)
	}
	began := time.Now()
	err := s.Store.Put(a)
	s.tr.put.add(1, time.Since(began))
	return err
}

func (s timedStore) Enrich(m *evidence.Map, types []rdf.Term) int {
	if !s.tr.on.Load() {
		return s.Store.Enrich(m, types)
	}
	began := time.Now()
	n := s.Store.Enrich(m, types)
	s.tr.enrich.add(int64(n), time.Since(began))
	return n
}

// wrapStores replaces every repository of a registry with its timed
// decorator.
func wrapStores(reg *annotstore.Registry, tr *tracer) {
	for _, name := range reg.Names() {
		if s, ok := reg.Get(name); ok {
			reg.Add(timedStore{Store: s, tr: tr})
		}
	}
}

// timedJournal decorates stream.WindowJournal.
type timedJournal struct {
	stream.WindowJournal
	tr *tracer
}

func (j timedJournal) Lookup(key string) (stream.WindowResult, bool) {
	if j.tr.on.Load() {
		j.tr.lookups.Add(1)
	}
	return j.WindowJournal.Lookup(key)
}

func (j timedJournal) Commit(key string, res stream.WindowResult) error {
	if !j.tr.on.Load() {
		return j.WindowJournal.Commit(key, res)
	}
	began := time.Now()
	err := j.WindowJournal.Commit(key, res)
	j.tr.commit.add(1, time.Since(began))
	return err
}

// timedTransport decorates the http.RoundTripper under the resilient
// client. A round trip ends when the caller closes the response body.
type timedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.tr.on.Load() {
		return t.base.RoundTrip(req)
	}
	began := time.Now()
	if req.ContentLength > 0 {
		t.tr.httpBytes.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.http.add(1, time.Since(began))
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, tr: t.tr, began: began}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	tr    *tracer
	began time.Time
	once  sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.tr.httpBytes.Add(int64(n))
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(func() { b.tr.http.add(1, time.Since(b.began)) })
	return b.ReadCloser.Close()
}

// topology says where a workload's services run, which decides how the
// codec share of a service call is isolated.
type topology int

const (
	// embedded: in-process services seen only through processor spans.
	embedded topology = iota
	// local: in-process services behind timed QualityService decorators.
	local
	// remote: services behind HTTP proxies, decorated on both sides.
	remote
)

// layerMetrics lists the per-layer metrics in report order. Every traced
// run reports all of them; a layer a workload leaves idle reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"workflow.self_ms_per_enact", "ms"},
	{"services.invocations_per_enact", "count"},
	{"services.codec_ms_per_enact", "ms"},
	{"services.failed_invocations", "count"},
	{"services.http_requests_per_enact", "count"},
	{"services.http_rtt_ms_per_enact", "ms"},
	{"services.http_bytes_per_enact", "B"},
	{"imprint.searches_per_enact", "count"},
	{"imprint.search_ms_per_enact", "ms"},
	{"ispider.host_ms_per_enact", "ms"},
	{"qa.items_asserted_per_enact", "count"},
	{"qa.assert_ms_per_enact", "ms"},
	{"ops.annotate_ms_per_enact", "ms"},
	{"annotstore.puts_per_enact", "count"},
	{"annotstore.put_ms_per_enact", "ms"},
	{"annotstore.values_enriched_per_enact", "count"},
	{"annotstore.enrich_ms_per_enact", "ms"},
	{"compiler.action_ms_per_enact", "ms"},
	{"compiler.consolidate_ms_per_enact", "ms"},
	{"compiler.invocations_saved_per_enact", "count"},
	{"qcache.hits", "count"},
	{"qcache.misses", "count"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.evictions", "count"},
	{"qcache.lookup_ms_per_enact", "ms"},
	{"stream.windows", "count"},
	{"stream.late_reemissions", "count"},
	{"stream.backlog_max_items", "count"},
	{"stream.generator_lag_p99_ms", "ms"},
	{"provenance.journal_commit_ms_per_window", "ms"},
	{"provenance.journal_lookups", "count"},
	{"provenance.records", "count"},
	{"sparql.server_ms_per_query", "ms"},
	{"sparql.rows_per_query", "count"},
	{"sparql.query_p50_ms", "ms"},
	{"sparql.query_p90_ms", "ms"},
	{"gc.cpu_share", "ratio"},
	{"gc.cycles_per_1k_items", "count"},
	{"gc.pause_p99_ms", "ms"},
	{"trace.overhead_share", "ratio"},
	{"trace.accounted_share", "ratio"},
	{"error_rate", "ratio"},
}

// perLayer assembles the traced run's result from the traced half (obs)
// and the untraced quarters (base) around it.
func perLayer(obs *observed, rm runtimeDelta, tr *tracer, base *observed) result {
	per := func(x float64) float64 {
		if obs.enacts == 0 {
			return 0
		}
		return x / float64(obs.enacts)
	}
	v := map[string]float64{
		"workflow.self_ms_per_enact":           per(tr.selfMS(kindWorkflow)),
		"services.invocations_per_enact":       per(float64(tr.svc.n.Load())),
		"services.failed_invocations":          float64(tr.svcFails.Load()),
		"services.http_requests_per_enact":     per(float64(tr.http.n.Load())),
		"services.http_rtt_ms_per_enact":       per(tr.http.ms()),
		"services.http_bytes_per_enact":        per(float64(tr.httpBytes.Load())),
		"imprint.search_ms_per_enact":          per(tr.selfMS(kindImprint)),
		"ispider.host_ms_per_enact":            per(tr.selfMS(kindHost)),
		"qa.items_asserted_per_enact":          per(float64(tr.qaItems.Load())),
		"qa.assert_ms_per_enact":               per(tr.qa.ms()),
		"ops.annotate_ms_per_enact":            per(tr.ann.ms() - tr.put.ms()),
		"annotstore.puts_per_enact":            per(float64(tr.put.n.Load())),
		"annotstore.put_ms_per_enact":          per(tr.put.ms()),
		"annotstore.values_enriched_per_enact": per(float64(tr.enrich.n.Load())),
		"annotstore.enrich_ms_per_enact":       per(tr.enrich.ms()),
		"compiler.action_ms_per_enact":         per(tr.selfMS(kindAction)),
		"compiler.consolidate_ms_per_enact":    per(tr.selfMS(kindConsolidate)),
		"provenance.journal_lookups":           float64(tr.lookups.Load()),
		"gc.cpu_share":                         rm.gcCPUShare,
		"gc.pause_p99_ms":                      rm.pauseP99ms,
	}
	if n := tr.commit.n.Load(); n > 0 {
		v["provenance.journal_commit_ms_per_window"] = tr.commit.ms() / float64(n)
	}
	switch obs.topo {
	case embedded:
		// Service processors run envelope codec around the operator; the
		// operator's own time is what the decorators saw.
		inner := tr.qa.ms() + tr.ann.ms() + tr.enrich.ms()
		v["services.codec_ms_per_enact"] = per(tr.selfMS(kindQAProc, kindAnnProc, kindEnrichProc) - inner)
		v["services.invocations_per_enact"] = per(float64(tr.spanCount(kindQAProc, kindAnnProc, kindEnrichProc)))
	case local:
		v["services.codec_ms_per_enact"] = per(tr.svc.ms() - tr.qa.ms())
	case remote:
		v["services.codec_ms_per_enact"] = per(tr.svc.ms() - tr.http.ms() + tr.srv.ms() - tr.qa.ms())
		v["qcache.lookup_ms_per_enact"] = per(tr.selfMS(kindQAProc) - tr.svc.ms())
	}
	if obs.items > 0 {
		v["gc.cycles_per_1k_items"] = float64(rm.cycles) * 1000 / float64(obs.items)
	}
	if traced := obs.itemsPerSec(); traced > 0 {
		v["trace.overhead_share"] = base.itemsPerSec()/traced - 1
	}
	all := tr.selfMS(kindWorkflow, kindQAProc, kindAnnProc, kindEnrichProc, kindAction,
		kindConsolidate, kindImprint, kindHost)
	if p50 := base.latency().p50; p50 > 0 && all > 0 {
		v["trace.accounted_share"] = per(all) / p50
	}
	for k, x := range obs.layer {
		v[k] = x
	}
	attempted := obs.attempted + base.attempted
	failed := obs.failed + base.failed
	if attempted > 0 {
		v["error_rate"] = float64(failed) / float64(attempted)
	}
	m := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm.name] = metric{v[lm.name], lm.unit}
	}
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   m,
	}
}
