package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"qurator"
	"qurator/internal/cluster"
	"qurator/internal/compiler"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/qvlang"
	"qurator/internal/rdf"
	"qurator/internal/stream"
	"qurator/internal/workflow"
)

// streamBench is the §5.1 view over a stream of items carrying their
// HR/MC evidence inline, so no annotator writes: a saturating phase of
// count-sliding windows (throughput) and a paced open-loop phase of
// event-time sliding windows with bounded disorder and late data (window
// latency). Both run Parallelism = nproc with a cluster window journal
// and drift detection on.
type streamBench struct {
	seed     int64
	nproc    int
	fw       *qurator.Framework
	compiled *compiler.Compiled
	sat      *stream.Enactor
	paced    *stream.Enactor
	// next numbers items across phases and drives, so no window content
	// ever repeats and the journal never replays.
	next  int64
	phase int64
}

const (
	satWindow = 64
	satSlide  = 32

	pacedRate       = 250 // items per second, open loop
	pacedWindowMS   = 64  // event-time window length
	pacedSlideMS    = 16
	pacedDisorderMS = 8   // MaxOutOfOrder
	pacedLatenessMS = 128 // AllowedLateness
	pacedJitterMS   = 6   // in-order items trail by up to this
	pacedLateShare  = 0.005
	pacedLateMinMS  = 24 // late items trail by [min, max) ms
	pacedLateMaxMS  = 48
	eventEpochMS    = 1_700_000_000_000

	// streamSampleEvery: one window in this many is re-enacted in batch.
	streamSampleEvery = 16
	// streamRounds: the phases alternate this many times in a run, so
	// both sample the whole run rather than one stretch of it.
	streamRounds = 5
)

func newStream(_ context.Context, seed int64, tr *tracer) (workload, error) {
	fw := qurator.New()
	if err := fw.DeployStandardLibrary(); err != nil {
		return nil, err
	}
	if tr != nil {
		decorateOperators(fw.Services, tr)
		wrapServices(fw.Services, tr, &tr.svc)
		wrapStores(fw.Repositories, tr)
	}
	compiled, err := fw.CompileViewForStream([]byte(qvlang.PaperViewXML))
	if err != nil {
		return nil, err
	}
	var journal stream.WindowJournal = cluster.NewJournal(fw.Provenance)
	if tr != nil {
		journal = timedJournal{WindowJournal: journal, tr: tr}
	}
	nproc := runtime.NumCPU()
	sat, err := stream.New(compiled, stream.Config{
		Window:      satWindow,
		Slide:       satSlide,
		Parallelism: nproc,
		Journal:     journal,
		Drift:       &stream.DriftConfig{},
	})
	if err != nil {
		return nil, err
	}
	paced, err := stream.New(compiled, stream.Config{
		EventTimeKey:    ontology.ObservedAt,
		WindowDuration:  pacedWindowMS * time.Millisecond,
		SlideDuration:   pacedSlideMS * time.Millisecond,
		MaxOutOfOrder:   pacedDisorderMS * time.Millisecond,
		AllowedLateness: pacedLatenessMS * time.Millisecond,
		Parallelism:     nproc,
		Journal:         journal,
		Drift:           &stream.DriftConfig{},
	})
	if err != nil {
		return nil, err
	}
	return &streamBench{seed: seed, nproc: nproc, fw: fw, compiled: compiled, sat: sat, paced: paced}, nil
}

func (s *streamBench) params() map[string]any {
	return map[string]any{
		"view":               "paper §5.1 view, CompileViewForStream, inline HR/MC evidence",
		"parallelism":        s.nproc,
		"journal":            "cluster.NewJournal over the provenance log",
		"drift":              "on, default DriftConfig",
		"saturating":         fmt.Sprintf("closed loop, count-sliding windows %d/%d", satWindow, satSlide),
		"paced_rate_items_s": pacedRate,
		"paced_windows":      fmt.Sprintf("event-time sliding %dms/%dms", pacedWindowMS, pacedSlideMS),
		"paced_disorder_ms":  pacedDisorderMS,
		"paced_lateness_ms":  pacedLatenessMS,
		"paced_late_share":   pacedLateShare,
		"paced_late_by_ms":   fmt.Sprintf("[%d,%d)", pacedLateMinMS, pacedLateMaxMS),
		"split":              fmt.Sprintf("%d rounds of a paced phase (a third of the time) then a saturating one", streamRounds),
		"oracle":             "each item decided once over non-superseded windows; late re-emissions carry Supersedes; sampled windows equal batch enactment",
	}
}

func (s *streamBench) close() {}

func streamIRI(n int64) evidence.Item {
	return rdf.IRI("urn:lsid:perfbench.org:stream:" + strconv.FormatInt(n, 10))
}

func streamIndex(item string) int64 {
	n, _ := strconv.ParseInt(item[strings.LastIndexByte(item, ':')+1:], 10, 64)
	return n
}

// mix is splitmix64: item evidence is a pure function of (seed, item).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// evidenceFor is item n's inline evidence; event is its event time in
// unix milliseconds, or nil for count-windowed items.
func (s *streamBench) evidenceFor(n int64, event *int64) map[evidence.Key]evidence.Value {
	h := mix(uint64(s.seed)*0x100000001b3 ^ uint64(n))
	ev := map[evidence.Key]evidence.Value{
		ontology.HitRatio:      evidence.Float(0.05 + 0.95*unit(h)),
		ontology.Coverage:      evidence.Float(0.05 + 0.9*unit(mix(h))),
		ontology.Masses:        evidence.Int(int64(5 + mix(h+1)%36)),
		ontology.PeptidesCount: evidence.Int(int64(2 + mix(h+2)%19)),
	}
	if event != nil {
		ev[ontology.ObservedAt] = evidence.Int(*event)
	}
	return ev
}

type received struct {
	res stream.WindowResult
	at  time.Time
}

// enactorRun is one Enactor.Run in progress with its collector.
type enactorRun struct {
	in      chan stream.Item
	stopped chan struct{}
	decided atomic.Int64
	got     []received
	done    chan struct{}
	err     error
}

func startEnactor(ctx context.Context, e *stream.Enactor) *enactorRun {
	r := &enactorRun{in: make(chan stream.Item), stopped: make(chan struct{}), done: make(chan struct{})}
	// The output buffer absorbs one burst of fires per worker.
	out := make(chan stream.WindowResult, 16)
	go func() {
		defer close(r.done)
		// A superseding re-emission repeats the decisions of the emission
		// it replaces, plus the late item if that is new: count only the
		// new ones.
		emitted := map[int64]int{}
		for res := range out {
			r.got = append(r.got, received{res, time.Now()})
			n := len(res.Decisions)
			if res.Kind != "" {
				n -= emitted[res.Start]
				emitted[res.Start] = len(res.Decisions)
			}
			r.decided.Add(int64(n))
		}
	}()
	go func() {
		r.err = e.Run(ctx, r.in, out)
		close(r.stopped)
	}()
	return r
}

// send delivers one item, or reports false once the enactor has stopped.
func (r *enactorRun) send(it stream.Item) bool {
	select {
	case r.in <- it:
		return true
	case <-r.stopped:
		return false
	}
}

// finish closes the input and waits for the enactor and its collector.
func (r *enactorRun) finish() ([]received, error) {
	close(r.in)
	<-r.stopped
	<-r.done
	return r.got, r.err
}

func (s *streamBench) drive(ctx context.Context, d time.Duration, tr *tracer) (*observed, error) {
	obs := newObserved("window_latency")
	obs.topo = local
	provBefore := s.fw.Provenance.Len() + s.fw.Provenance.Emissions()
	began := time.Now()
	// A third of the time is paced: several hundred windows for the
	// latency percentiles; throughput gets the longer rest to average over.
	rounds := streamRounds
	if d < time.Duration(rounds)*time.Second {
		rounds = 1
	}
	var satDecided int64
	var satElapsed time.Duration
	for i := 0; i < rounds; i++ {
		if err := s.pace(ctx, d/3/time.Duration(rounds), obs); err != nil {
			return nil, err
		}
		decided, took, err := s.saturate(ctx, (d-d/3)/time.Duration(rounds), obs)
		if err != nil {
			return nil, err
		}
		satDecided += decided
		satElapsed += took
	}
	obs.elapsed = time.Since(began)
	obs.rate = float64(satDecided) / satElapsed.Seconds()
	obs.detail["saturating_items_per_s"] = metric{obs.rate, "items/s"}
	obs.layer["provenance.records"] = float64(s.fw.Provenance.Len() + s.fw.Provenance.Emissions() - provBefore)
	obs.layer["stream.windows"] = float64(obs.enacts)
	obs.layer["stream.generator_lag_p99_ms"] = summarize(obs.series["generator_lag"]).p99
	return obs, nil
}

// saturate feeds count-sliding windows as fast as they are taken and
// returns the items decided and the time that took.
func (s *streamBench) saturate(ctx context.Context, d time.Duration, obs *observed) (int64, time.Duration, error) {
	run := startEnactor(ctx, s.sat)
	first := s.next
	start := time.Now()
	for n := 0; n%64 != 0 || time.Since(start) < d; n++ {
		if !run.send(stream.Item{ID: streamIRI(s.next), Evidence: s.evidenceFor(s.next, nil)}) {
			break
		}
		s.next++
	}
	got, err := run.finish()
	elapsed := time.Since(start)
	if err != nil {
		return 0, 0, fmt.Errorf("saturating stream: %w", err)
	}
	last := s.next
	decided := run.decided.Load()
	obs.items += decided
	obs.enacts += int64(len(got))
	obs.attempted += int64(len(got))
	addDetail(obs, "saturating_windows", float64(len(got)))

	obs.later("stream-count-decided-once", func() error {
		return decidedOnce(got, first, last, nil)
	})
	for i, r := range got {
		if i%streamSampleEvery != 0 || r.res.Failed || len(r.res.Decisions) == 0 {
			continue
		}
		r := r.res
		obs.later("stream-count-window-vs-batch", func() error {
			lastIdx := streamIndex(r.Decisions[len(r.Decisions)-1].Item)
			var contents []int64
			for n := lastIdx - int64(r.Size) + 1; n <= lastIdx; n++ {
				contents = append(contents, n)
			}
			return s.batchEquals(ctx, r, contents, nil)
		})
	}
	return decided, elapsed, nil
}

// addDetail accumulates a count in the record across rounds.
func addDetail(obs *observed, name string, n float64) {
	obs.detail[name] = metric{obs.detail[name].Value + n, "count"}
}

// pacedSend is one item of the paced phase.
type pacedSend struct {
	n     int64 // item number
	event int64 // event time, unix ms
}

// pace feeds event-time windows open loop at pacedRate, with bounded
// disorder and a share of late items.
func (s *streamBench) pace(ctx context.Context, d time.Duration, obs *observed) error {
	interval := time.Second / pacedRate
	total := int(d / interval)
	s.phase++
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + s.phase))
	mirror := newWindowMirror()
	dropped := map[int64]bool{}
	sends := make([]pacedSend, 0, total)
	lags := make([]float64, 0, total)
	var backlogMax int64

	run := startEnactor(ctx, s.paced)
	start := time.Now()
	for k := 0; k < total; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		event := int64(eventEpochMS + k*1000/pacedRate)
		if rng.Float64() < pacedLateShare {
			event -= int64(pacedLateMinMS + rng.Intn(pacedLateMaxMS-pacedLateMinMS))
		} else {
			event -= int64(rng.Intn(pacedJitterMS + 1))
		}
		n := s.next
		s.next++
		if !run.send(stream.Item{ID: streamIRI(n), Evidence: s.evidenceFor(n, &event)}) {
			break
		}
		lags = append(lags, ms(time.Since(due)))
		if b := int64(k+1) - run.decided.Load(); b > backlogMax {
			backlogMax = b
		}
		sends = append(sends, pacedSend{n, event})
		if !mirror.push(len(sends)-1, event) {
			dropped[n] = true
		}
	}
	got, err := run.finish()
	if err != nil {
		return fmt.Errorf("paced stream: %w", err)
	}

	// Window latency: from the due time of the input that fired the
	// window — the first item that moved the watermark past its end, or
	// the late item of a superseding re-emission — until its receipt.
	emitted := map[int64]int{}
	triggerOf := make([]int, len(got))
	unattributed, late := 0, 0
	var lats []float64
	for i, r := range got {
		triggerOf[i] = -1
		if r.res.Late {
			late++
		}
		if r.res.Partial || r.res.Failed {
			continue
		}
		nth := emitted[r.res.Start]
		emitted[r.res.Start]++
		trig := mirror.triggers[r.res.Start]
		if nth >= len(trig) || (nth > 0) != r.res.Late {
			unattributed++
			continue
		}
		triggerOf[i] = trig[nth]
		due := start.Add(time.Duration(trig[nth]) * interval)
		lats = append(lats, ms(r.at.Sub(due)))
	}
	obs.series["window_latency"] = append(obs.series["window_latency"], lats...)
	obs.rounds = append(obs.rounds, summarize(lats))
	obs.series["generator_lag"] = append(obs.series["generator_lag"], lags...)
	obs.items += run.decided.Load()
	obs.enacts += int64(len(got))
	obs.attempted += int64(len(got))
	obs.layer["stream.late_reemissions"] += float64(late)
	if v := float64(backlogMax); v > obs.layer["stream.backlog_max_items"] {
		obs.layer["stream.backlog_max_items"] = v
	}
	obs.detail["paced_backlog_max_items"] = metric{obs.layer["stream.backlog_max_items"], "count"}
	addDetail(obs, "paced_items_sent", float64(len(sends)))
	addDetail(obs, "paced_windows", float64(len(got)))
	addDetail(obs, "paced_late_reemissions", float64(late))
	addDetail(obs, "paced_windows_unattributed", float64(unattributed))
	addDetail(obs, "paced_late_dropped", float64(len(dropped)))

	if len(sends) > 0 {
		first, last := sends[0].n, sends[len(sends)-1].n+1
		obs.later("stream-event-decided-once", func() error { return decidedOnce(got, first, last, dropped) })
	}
	obs.later("stream-late-carries-supersedes", func() error {
		for _, r := range got {
			if r.res.Late && r.res.Supersedes == "" {
				return fmt.Errorf("late re-emission of window %d has no Supersedes", r.res.Seq)
			}
		}
		return nil
	})
	for i, r := range got {
		if i%streamSampleEvery != 0 || triggerOf[i] < 0 || len(r.res.Decisions) == 0 {
			continue
		}
		r, trig := r.res, triggerOf[i]
		obs.later("stream-event-window-vs-batch", func() error {
			var contents, events []int64
			for _, snd := range sends[:trig+1] {
				if snd.event >= r.Start && snd.event < r.End {
					contents = append(contents, snd.n)
					events = append(events, snd.event)
				}
			}
			return s.batchEquals(ctx, r, contents, events)
		})
	}
	return nil
}

// decidedOnce checks that items [first, last) are each decided exactly
// once over the final emissions — a late re-emission replaces the
// emission of the same window before it — except items the late-data
// policy dropped, which are decided never.
func decidedOnce(got []received, first, last int64, dropped map[int64]bool) error {
	final := map[string][]stream.Decision{}
	var order []string
	for i, r := range got {
		key := strconv.Itoa(i)
		if r.res.Kind != "" {
			key = strconv.FormatInt(r.res.Start, 10)
		}
		if _, ok := final[key]; !ok {
			order = append(order, key)
		}
		final[key] = r.res.Decisions
	}
	counts := make(map[int64]int, last-first)
	for _, key := range order {
		for _, d := range final[key] {
			counts[streamIndex(d.Item)]++
		}
	}
	for n := first; n < last; n++ {
		want := 1
		if dropped[n] {
			want = 0
		}
		if counts[n] != want {
			return fmt.Errorf("item %d decided %d times, want %d", n, counts[n], want)
		}
	}
	if want := int(last-first) - len(dropped); len(counts) != want {
		return fmt.Errorf("%d items decided, want %d", len(counts), want)
	}
	return nil
}

// batchEquals re-enacts a window's contents through the compiled view in
// batch and compares the decisions with the streamed ones.
func (s *streamBench) batchEquals(ctx context.Context, r stream.WindowResult, contents, events []int64) error {
	m := evidence.NewMap()
	for i, n := range contents {
		var ev *int64
		if events != nil {
			ev = &events[i]
		}
		m.SetRow(streamIRI(n), s.evidenceFor(n, ev))
	}
	if m.Len() != r.Size {
		return fmt.Errorf("window %d: reconstructed %d items, window had %d", r.Seq, m.Len(), r.Size)
	}
	ports, err := s.compiled.Execute(ctx, workflow.Ports{compiler.PortDataSet: m})
	if err != nil {
		return fmt.Errorf("window %d batch enactment: %w", r.Seq, err)
	}
	outputs := map[string]*evidence.Map{}
	for name, v := range ports {
		if om, ok := v.(*evidence.Map); ok {
			outputs[name] = om
		}
	}
	decided := make([]evidence.Item, len(r.Decisions))
	for i, d := range r.Decisions {
		decided[i] = rdf.IRI(d.Item)
	}
	want := stream.Decide(decided, outputs, outputs[compiler.OutputAnnotations], s.compiled.Outputs, r.Seq)
	a, err := json.Marshal(r.Decisions)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if string(a) != string(b) {
		return fmt.Errorf("window %d: streamed %s, batch %s", r.Seq, a, b)
	}
	return nil
}

// windowMirror replays the event-time windowing rules over the paced
// feed to find the input that fired each emission.
type windowMirror struct {
	maxEvent int64
	seen     bool
	open     map[int64]bool  // window start → open
	fired    map[int64]int64 // retained fired window start → end
	// triggers lists, per window start, the send index that fired each
	// emission of the window in order: the first fire, then one per
	// superseding re-emission.
	triggers map[int64][]int
}

func newWindowMirror() *windowMirror {
	return &windowMirror{open: map[int64]bool{}, fired: map[int64]int64{}, triggers: map[int64][]int{}}
}

// push replays one send and reports whether a window took the item; a
// late item whose windows neither are open nor fired with items (so none
// is retained to supersede) is dropped by the enactor, and counted.
func (w *windowMirror) push(k int, event int64) bool {
	if !w.seen || event > w.maxEvent {
		w.maxEvent, w.seen = event, true
	}
	wm := w.maxEvent - pacedDisorderMS
	routed := false
	last := floorDiv(event, pacedSlideMS) * pacedSlideMS
	for start := last; start > event-pacedWindowMS; start -= pacedSlideMS {
		if w.open[start] {
			routed = true
			continue
		}
		if start+pacedWindowMS > wm {
			w.open[start] = true
			routed = true
			continue
		}
		if _, ok := w.fired[start]; ok {
			w.triggers[start] = append(w.triggers[start], k)
			routed = true
		}
	}
	for start := range w.open {
		if start+pacedWindowMS <= wm {
			delete(w.open, start)
			w.fired[start] = start + pacedWindowMS
			w.triggers[start] = append(w.triggers[start], k)
		}
	}
	for start, end := range w.fired {
		if wm >= end+pacedLatenessMS {
			delete(w.fired, start)
		}
	}
	return routed
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
