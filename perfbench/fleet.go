package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qurator"
	"qurator/internal/annotstore"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/provenance"
	"qurator/internal/sparql"
)

// fleet is the daemon path: a loopback server hosts the standard QA
// library and POST /query; a client framework scavenges those services,
// runs the data plane with the response cache, reads item evidence from
// a persistent repository and enacts a merged fleet of views. One
// closed-loop caller enacts batches, a share of which repeat a recent
// batch exactly (the §4 re-run); a second closed-loop caller queries the
// provenance of recent enactments while the log grows.
type fleet struct {
	seed      int64
	server    *httptest.Server
	transport *http.Transport
	query     *http.Client
	cli       *qurator.Framework
	evidence  *qurator.Repository
	mv        *qurator.MultiView
	views     []string
	xmls      [][]byte
	universe  []qurator.Item
	rng       *rand.Rand
	drawn     int
	recent    [][]qurator.Item
	// ref enacts each view independently and in-process over the same
	// evidence: the oracle for the merged HTTP enactment. Built on first
	// use, outside set-up.
	ref map[string]*qurator.Compiled
}

const (
	fleetItems        = 512  // items with preloaded evidence
	fleetBatch        = 64   // items per enactment
	fleetRepeatEvery  = 4    // every 4th batch repeats a recent one
	fleetRecent       = 32   // repeats draw from this many recent batches
	fleetCacheEntries = 1024 // fills within seconds, so the heap plateaus
	// fleetSampleEvery: one enactment (and one query) in this many is
	// checked against its reference.
	fleetSampleEvery = 8
	// fleetHistory is how many earlier enactments the provenance log
	// holds at set-up: the daemon has a past, so a write's cost does not
	// start from an empty log.
	fleetHistory = 200
	// fleetQueryThink is the query caller's pause between a reply and its
	// next query: a dashboard polling provenance, not a second saturating
	// client fighting the enactments for the CPU.
	fleetQueryThink = 20 * time.Millisecond
)

// fleetQAs are the four QA families of the standard library, as view
// fragments reading evidence from the persistent repository.
var fleetQAs = map[string]string{
	"hrmc": `<QualityAssertion servicename="HR MC score" servicetype="q:UniversalPIScore2" tagname="HR MC" tagsyntype="q:score">
    <variables repositoryRef="evidence">
      <var variablename="coverage" evidence="q:Coverage"/>
      <var variablename="masses" evidence="q:Masses"/>
      <var variablename="peptidesCount" evidence="q:PeptidesCount"/>
      <var variablename="hitRatio" evidence="q:HitRatio"/>
    </variables>
  </QualityAssertion>`,
	"hr": `<QualityAssertion servicename="HR score" servicetype="q:HRScoreAssertion" tagname="HR" tagsyntype="q:score">
    <variables repositoryRef="evidence">
      <var variablename="hr" evidence="q:HitRatio"/>
    </variables>
  </QualityAssertion>`,
	"class": `<QualityAssertion servicename="PIScoreClassifier" servicetype="q:PIScoreClassifier" tagsemtype="q:PIScoreClassification" tagname="ScoreClass" tagsyntype="q:class">
    <variables repositoryRef="evidence">
      <var variablename="coverage2" evidence="q:Coverage"/>
      <var variablename="hitRatio2" evidence="q:HitRatio"/>
    </variables>
  </QualityAssertion>`,
	"cred": `<QualityAssertion servicename="CurationCredibility" servicetype="q:CurationCredibility" tagname="Credibility" tagsyntype="q:score">
    <variables repositoryRef="evidence">
      <var variablename="code" evidence="q:EvidenceCode"/>
      <var variablename="impact" evidence="q:JournalImpactFactor"/>
    </variables>
  </QualityAssertion>`,
}

// fleetFamilies are the view families: QAs used and the filter condition
// template; each family is instantiated at three thresholds.
var fleetFamilies = []struct {
	name       string
	qas        []string
	condition  string
	thresholds []int
}{
	{"hrmc", []string{"hrmc"}, "HR_MC > %d", []int{20, 40, 60}},
	{"hr", []string{"hr"}, "HR > %d", []int{30, 50, 70}},
	{"class", []string{"hrmc", "class"}, "ScoreClass in q:high, q:mid and HR_MC > %d", []int{10, 30, 50}},
	{"cred", []string{"cred"}, "Credibility > %d", []int{20, 40, 60}},
}

const fleetViewXML = `<QualityView name="%s">
  %s
  <action name="keep">
    <filter>
      <condition>%s</condition>
    </filter>
  </action>
</QualityView>`

var evidenceCodes = []string{"TAS", "IDA", "IMP", "IGI", "IPI", "IEP", "ISS", "NAS", "IC", "ND", "IEA"}

func fleetItem(n int) qurator.Item {
	return qurator.NewItem("urn:lsid:perfbench.org:fleet:" + strconv.Itoa(n))
}

// preload writes every item's evidence into a persistent repository; the
// values are a pure function of (seed, item).
func preload(repo annotstore.Store, seed int64) error {
	for n := 0; n < fleetItems; n++ {
		h := mix(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(n))
		it := fleetItem(n)
		anns := []annotstore.Annotation{
			{Item: it, Type: ontology.HitRatio, Value: evidence.Float(0.05 + 0.95*unit(h))},
			{Item: it, Type: ontology.Coverage, Value: evidence.Float(0.05 + 0.9*unit(mix(h)))},
			{Item: it, Type: ontology.Masses, Value: evidence.Int(int64(5 + mix(h+1)%36))},
			{Item: it, Type: ontology.PeptidesCount, Value: evidence.Int(int64(2 + mix(h+2)%19))},
			{Item: it, Type: ontology.EvidenceCode, Value: evidence.String_(evidenceCodes[mix(h+3)%uint64(len(evidenceCodes))])},
		}
		// One item in five cites no journal: the QA falls back to its
		// midpoint modulation.
		if mix(h+4)%5 != 0 {
			anns = append(anns, annotstore.Annotation{Item: it, Type: ontology.JournalImpactFactor,
				Value: evidence.Float(20 * unit(mix(h+5)))})
		}
		for _, a := range anns {
			if err := repo.Put(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// preloadHistory records fleetHistory past enactments of every view in
// the provenance log, shaped as MultiView.Enact records them.
func preloadHistory(cli *qurator.Framework, mv *qurator.MultiView) {
	began := time.Now().Add(-time.Hour)
	for i := 0; i < fleetHistory; i++ {
		trace := fmt.Sprintf("history-%d", i)
		for _, v := range mv.Views() {
			outputs := map[string]int{}
			for _, out := range v.Outputs {
				outputs[out] = fleetBatch / 2
			}
			cli.Provenance.Record(provenance.Record{
				View:       v.Name(),
				Started:    began.Add(time.Duration(i) * 50 * time.Millisecond),
				Duration:   40 * time.Millisecond,
				InputSize:  fleetBatch,
				Outputs:    outputs,
				Conditions: v.Conditions(),
				TraceID:    trace,
			})
		}
	}
}

func fleetViews() (names []string, xmls [][]byte) {
	for _, fam := range fleetFamilies {
		for _, t := range fam.thresholds {
			name := fmt.Sprintf("fleet-%s-%d", fam.name, t)
			var qas []string
			for _, q := range fam.qas {
				qas = append(qas, fleetQAs[q])
			}
			names = append(names, name)
			xmls = append(xmls, []byte(fmt.Sprintf(fleetViewXML, name,
				strings.Join(qas, "\n  "), fmt.Sprintf(fam.condition, t))))
		}
	}
	return names, xmls
}

func newFleet(ctx context.Context, seed int64, tr *tracer) (workload, error) {
	srv := qurator.New()
	if err := srv.DeployStandardLibrary(); err != nil {
		return nil, err
	}
	if tr != nil {
		decorateOperators(srv.Services, tr)
		wrapServices(srv.Services, tr, &tr.srv)
	}
	cli := qurator.New()
	mux := http.NewServeMux()
	mux.Handle("/query", cli.QueryHandler())
	mux.Handle("/", srv.Handler())
	f := &fleet{seed: seed, cli: cli, server: httptest.NewServer(mux), rng: rand.New(rand.NewSource(seed))}
	f.transport = http.DefaultTransport.(*http.Transport).Clone()
	f.transport.MaxIdleConnsPerHost = 8
	f.query = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	var base http.RoundTripper = f.transport
	if tr != nil {
		base = timedTransport{base: f.transport, tr: tr}
	}
	cli.SetResilience(qurator.Resilience{BaseTransport: base})
	cli.SetDataPlane(qurator.DataPlane{Cache: true, CacheEntries: fleetCacheEntries})
	if _, err := cli.Scavenge(ctx, f.server.URL); err != nil {
		f.close()
		return nil, err
	}
	if tr != nil {
		wrapServices(cli.Services, tr, &tr.svc)
	}
	f.evidence = cli.AddRepository("evidence", true)
	if err := preload(f.evidence, seed); err != nil {
		f.close()
		return nil, err
	}
	if tr != nil {
		wrapStores(cli.Repositories, tr)
	}
	f.views, f.xmls = fleetViews()
	mv, err := cli.CompileViewSet(f.xmls...)
	if err != nil {
		f.close()
		return nil, err
	}
	f.mv = mv
	preloadHistory(cli, mv)
	for n := 0; n < fleetItems; n++ {
		f.universe = append(f.universe, fleetItem(n))
	}
	return f, nil
}

func (f *fleet) params() map[string]any {
	return map[string]any{
		"views":              len(f.views),
		"families":           "HR_MC, HR, classifier+HR_MC, credibility; 3 thresholds each",
		"items_preloaded":    fleetItems,
		"batch_items":        fleetBatch,
		"repeat_every":       fleetRepeatEvery,
		"repeat_from_recent": fleetRecent,
		"cache_entries":      fleetCacheEntries,
		"shared_prefixes":    f.mv.SharedPrefixes(),
		"saved_per_enact":    f.mv.SavedPerEnactment(),
		"callers":            "1 closed-loop MultiView.Enact caller, 1 closed-loop POST /query caller",
		"query_think_ms":     fleetQueryThink.Milliseconds(),
		"history_enactments": fleetHistory,
		"oracle":             "merged outputs equal independent in-process enactment value by value; query rows equal sparql.ExecBaseline",
	}
}

func (f *fleet) close() {
	f.server.Close()
	f.transport.CloseIdleConnections()
	f.query.CloseIdleConnections()
}

// nextBatch draws a fresh batch or, every fleetRepeatEvery-th time,
// repeats one of the recent batches exactly, and says which it did. The
// schedule is fixed so the repeat share does not vary with the seed.
func (f *fleet) nextBatch() ([]qurator.Item, bool) {
	f.drawn++
	if len(f.recent) > 0 && f.drawn%fleetRepeatEvery == 0 {
		return f.recent[f.rng.Intn(len(f.recent))], true
	}
	batch := make([]qurator.Item, 0, fleetBatch)
	for _, i := range f.rng.Perm(fleetItems)[:fleetBatch] {
		batch = append(batch, f.universe[i])
	}
	f.recent = append(f.recent, batch)
	if len(f.recent) > fleetRecent {
		f.recent = f.recent[1:]
	}
	return batch, false
}

func (f *fleet) reference() error {
	if f.ref != nil {
		return nil
	}
	fw := qurator.New()
	if err := fw.DeployStandardLibrary(); err != nil {
		return err
	}
	// The reference reads the same evidence repository, undecorated.
	fw.Repositories.Add(f.evidence)
	ref := map[string]*qurator.Compiled{}
	for i, xml := range f.xmls {
		c, err := fw.CompileView(xml)
		if err != nil {
			return err
		}
		ref[f.views[i]] = c
	}
	f.ref = ref
	return nil
}

// sameOutputs compares a merged view result with independent enactment,
// value by value including the value (and term) kind.
func (f *fleet) sameOutputs(ctx context.Context, items []qurator.Item, res map[string]qurator.ViewResult) error {
	for _, name := range f.views {
		want, err := f.ref[name].Run(ctx, items)
		if err != nil {
			return fmt.Errorf("view %s reference: %w", name, err)
		}
		got := res[name].Outputs
		if len(got) != len(want) {
			return fmt.Errorf("view %s: %d outputs merged, %d independent", name, len(got), len(want))
		}
		for out, wm := range want {
			gm, ok := got[out]
			if !ok {
				return fmt.Errorf("view %s: output %s missing from merged result", name, out)
			}
			if err := sameMap(gm, wm); err != nil {
				return fmt.Errorf("view %s output %s: %w", name, out, err)
			}
		}
	}
	return nil
}

func sameMap(got, want *evidence.Map) error {
	gi, wi := got.Items(), want.Items()
	if len(gi) != len(wi) {
		return fmt.Errorf("%d items, want %d", len(gi), len(wi))
	}
	for i := range wi {
		if gi[i] != wi[i] {
			return fmt.Errorf("item %d is %v, want %v", i, gi[i], wi[i])
		}
		grow, wrow := got.Row(gi[i]), want.Row(wi[i])
		if len(grow) != len(wrow) {
			return fmt.Errorf("item %v has %d values, want %d", wi[i], len(grow), len(wrow))
		}
		for k, wv := range wrow {
			gv, ok := grow[k]
			if !ok || gv.Kind() != wv.Kind() || gv != wv {
				return fmt.Errorf("item %v key %v is %v (%v), want %v (%v)", wi[i], k, gv, gv.Kind(), wv, wv.Kind())
			}
		}
	}
	return nil
}

// fleetQueries are the provenance SELECTs the query caller sends, keyed
// by an enactment's trace ID: monotone patterns over an append-only log,
// so the rows of a finished enactment never change.
var fleetQueries = []string{
	`SELECT ?view ?n WHERE { ?run <` + ontology.Q("traceID").Value() + `> "%s" . ?run <` +
		ontology.Q("usedView").Value() + `> ?view . ?run <` + ontology.Q("inputSize").Value() + `> ?n . }`,
	`SELECT ?view ?name ?size WHERE { ?run <` + ontology.Q("traceID").Value() + `> "%s" . ?run <` +
		ontology.Q("usedView").Value() + `> ?view . ?run <` + ontology.Q("producedOutput").Value() + `> ?o . ?o <` +
		ontology.Q("outputName").Value() + `> ?name . ?o <` + ontology.Q("outputSize").Value() + `> ?size . }`,
}

// queried is one POST /query round trip. Rows are kept only for the
// responses the oracle samples.
type queried struct {
	query    string
	took     time.Duration
	serverMS float64
	rows     int
	sampled  bool
	kept     []map[string]string
	err      error
}

func (f *fleet) postQuery(ctx context.Context, query string, keep bool) queried {
	q := queried{query: query, sampled: keep}
	body, err := json.Marshal(qurator.QueryRequest{Target: "provenance", Query: query})
	if err != nil {
		q.err = err
		return q
	}
	began := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.server.URL+"/query", bytes.NewReader(body))
	if err != nil {
		q.err = err
		return q
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.query.Do(req)
	if err != nil {
		q.err = err
		return q
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		q.err = fmt.Errorf("POST /query: %s", resp.Status)
		return q
	}
	var qr qurator.QueryResponse
	q.err = json.NewDecoder(resp.Body).Decode(&qr)
	q.took = time.Since(began)
	q.serverMS, q.rows = qr.DurationMillis, len(qr.Rows)
	if keep {
		q.kept = qr.Rows
	}
	return q
}

// baselineRows evaluates a query with the reference evaluator over a
// fresh snapshot and renders the rows as the endpoint does.
func (f *fleet) baselineRows(query string) ([]string, error) {
	res, err := sparql.ExecBaseline(f.cli.Provenance.Snapshot(), query)
	if err != nil {
		return nil, err
	}
	rows := make([]string, 0, len(res.Bindings))
	for _, b := range res.Bindings {
		row := map[string]string{}
		for v, t := range b {
			row[v] = t.String()
		}
		rows = append(rows, rowKey(row))
	}
	sort.Strings(rows)
	return rows, nil
}

func rowKey(row map[string]string) string {
	keys := make([]string, 0, len(row))
	for k := range row {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k + "=" + row[k] + ";")
	}
	return b.String()
}

func (f *fleet) drive(ctx context.Context, d time.Duration, tr *tracer) (*observed, error) {
	if err := f.reference(); err != nil {
		return nil, fmt.Errorf("fleet reference: %w", err)
	}
	obs := newObserved("enact")
	obs.topo = remote
	cacheBefore, _ := f.cli.CacheStats()
	provBefore := f.cli.Provenance.Len()

	var latest atomic.Pointer[string]
	stop := make(chan struct{})
	var (
		wg      sync.WaitGroup
		queries []queried
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := latest.Load()
			if id == nil {
				time.Sleep(time.Millisecond)
				continue
			}
			queries = append(queries, f.postQuery(ctx, fmt.Sprintf(fleetQueries[i%len(fleetQueries)], *id), len(queries)%fleetSampleEvery == 0))
			time.Sleep(fleetQueryThink)
		}
	}()

	// Fresh and repeated batches are timed and their cache lookups
	// counted apart, so a gain on repeats alone can be told from one on
	// every batch. Only this caller touches the response cache.
	var repeats int64
	var lookups [2]struct{ hits, misses uint64 }
	start := time.Now()
	for time.Since(start) < d {
		batch, repeat := f.nextBatch()
		class, kind := 0, "enact_fresh"
		if repeat {
			class, kind = 1, "enact_repeat"
		}
		cs, _ := f.cli.CacheStats()
		var res map[string]qurator.ViewResult
		began := time.Now()
		traceID, err := tracedEnactment(ctx, tr, func(ctx context.Context) error {
			var err error
			res, err = f.mv.Enact(ctx, batch)
			return err
		})
		took := time.Since(began)
		ce, _ := f.cli.CacheStats()
		lookups[class].hits += ce.Hits - cs.Hits
		lookups[class].misses += ce.Misses - cs.Misses
		obs.attempted++
		if err == nil {
			for _, name := range f.views {
				if res[name].Err != nil {
					err = res[name].Err
					break
				}
			}
		}
		if err != nil {
			obs.failed++
			fmt.Fprintln(os.Stderr, "perfbench: fleet enactment:", err)
			continue
		}
		latest.Store(&traceID)
		obs.series["enact"] = append(obs.series["enact"], ms(took))
		obs.series[kind] = append(obs.series[kind], ms(took))
		if repeat {
			repeats++
		}
		obs.enacts++
		obs.items += int64(len(batch))
		if obs.enacts%fleetSampleEvery == 0 {
			obs.later("fleet-merged-vs-independent", func() error { return f.sameOutputs(ctx, batch, res) })
		}
	}
	close(stop)
	wg.Wait()
	obs.elapsed = time.Since(start)

	var serverMS, rows float64
	for _, q := range queries {
		obs.attempted++
		if q.err != nil {
			obs.failed++
			fmt.Fprintln(os.Stderr, "perfbench: fleet query:", q.err)
			continue
		}
		obs.series["query"] = append(obs.series["query"], ms(q.took))
		serverMS += q.serverMS
		rows += float64(q.rows)
		if q.sampled {
			q := q
			obs.later("fleet-query-vs-baseline", func() error {
				want, err := f.baselineRows(q.query)
				if err != nil {
					return err
				}
				got := make([]string, 0, len(q.kept))
				for _, row := range q.kept {
					got = append(got, rowKey(row))
				}
				sort.Strings(got)
				if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
					return fmt.Errorf("query rows %q, baseline %q", got, want)
				}
				return nil
			})
		}
	}
	if n := float64(len(obs.series["query"])); n > 0 {
		q := summarize(obs.series["query"])
		obs.layer["sparql.server_ms_per_query"] = serverMS / n
		obs.layer["sparql.rows_per_query"] = rows / n
		obs.layer["sparql.query_p50_ms"] = q.p50
		obs.layer["sparql.query_p90_ms"] = q.p90
	}
	cacheAfter, _ := f.cli.CacheStats()
	hits := float64(cacheAfter.Hits - cacheBefore.Hits)
	misses := float64(cacheAfter.Misses - cacheBefore.Misses)
	obs.layer["qcache.hits"] = hits
	obs.layer["qcache.misses"] = misses
	if hits+misses > 0 {
		obs.layer["qcache.hit_ratio"] = hits / (hits + misses)
	}
	obs.layer["qcache.evictions"] = float64(cacheAfter.Evictions - cacheBefore.Evictions)
	obs.layer["compiler.invocations_saved_per_enact"] = float64(f.mv.SavedPerEnactment())
	obs.layer["provenance.records"] = float64(f.cli.Provenance.Len() - provBefore)
	obs.detail["qcache_hit_ratio"] = metric{obs.layer["qcache.hit_ratio"], "ratio"}
	if obs.enacts > 0 {
		obs.detail["repeat_share"] = metric{float64(repeats) / float64(obs.enacts), "ratio"}
	}
	for class, name := range []string{"qcache_hit_ratio_fresh", "qcache_hit_ratio_repeat"} {
		if n := lookups[class].hits + lookups[class].misses; n > 0 {
			obs.detail[name] = metric{float64(lookups[class].hits) / float64(n), "ratio"}
		}
	}
	obs.detail["sparql_rows_per_query"] = metric{obs.layer["sparql.rows_per_query"], "count"}
	return obs, nil
}
