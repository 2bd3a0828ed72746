package stream

import (
	"math"
	"time"

	"qurator/internal/evidence"
)

// windowPolicy is the windowing strategy behind the streaming enactor's
// ingest stage: count-based (windower) or event-time (eventWindower).
// push may fire any number of windows for one arriving item — an
// event-time watermark advance can close several at once, and a late
// arrival can re-fire an already-emitted window — so it returns a slice,
// in emission order. flush fires whatever is still open when the input
// closes.
type windowPolicy interface {
	push(it Item) ([]*windowJob, error)
	flush() []*windowJob
}

// defaultLateRetention is how many fired windows a count windower keeps
// around to route re-arrivals of already-decided items as late data.
const defaultLateRetention = 4

// windower implements the count-based windowing policy. It maintains the
// live window as an annotation map, so inline evidence rides along at no
// extra cost; each fire computes the window's statistics from that map
// with windowStats.
//
// Decide-once semantics: every item is decided by exactly one window —
// the first complete window containing it. The first fire decides all
// Window items; each later fire decides only the Slide newest, with the
// Window−Slide older items re-enacted purely as statistical context for
// the collection-scoped QAs. Tumbling windows (Slide == Window) decide
// every item they contain.
//
// Late data: a fired window is retained (content and decided set) for the
// last LateRetention fires. An item that was evicted from the live window
// and re-arrives is routed back to the retained window that decided it —
// a superseding re-fire carrying the refreshed evidence, linked to the
// original emission — instead of being mistaken for a fresh item and
// silently decided twice. Re-arrivals older than the retention horizon
// fall back to fresh-item handling (the horizon is the documented bound).
type windower struct {
	size  int
	slide int
	view  string

	live      *evidence.Map
	undecided int // trailing items not yet decided by any fire
	seq       int

	latePolicy LatePolicy
	retention  int
	retained   []*firedWindow
	decidedBy  map[evidence.Item]*firedWindow
}

// firedWindow is the retained snapshot of an emitted count window: enough
// to re-enact it when one of its items re-arrives late.
type firedWindow struct {
	m       *evidence.Map   // window content, refreshed by late arrivals
	items   []evidence.Item // arrival order at fire time
	decided []evidence.Item // the items THIS window decided
	gen     int             // fire generation: 0 original, 1+ superseding
	last    *windowJob      // content of the most recent emission
}

func newWindower(cfg Config, view string) *windower {
	size, slide := cfg.Window, cfg.Slide
	if slide <= 0 {
		slide = size
	}
	retention := cfg.LateRetention
	if retention == 0 {
		retention = defaultLateRetention
	}
	return &windower{
		size:       size,
		slide:      slide,
		view:       view,
		live:       evidence.NewMap(),
		latePolicy: cfg.LatePolicy,
		retention:  retention,
		decidedBy:  make(map[evidence.Item]*firedWindow),
	}
}

// push adds one item to the live window and returns the jobs it fires. A
// re-arrival of an item already in the live window refreshes its evidence
// without growing the window; a re-arrival of an item already decided by
// a retained window is late data and re-fires that window.
func (w *windower) push(it Item) ([]*windowJob, error) {
	fresh := !w.live.HasItem(it.ID)
	if fresh {
		if fw := w.decidedBy[it.ID]; fw != nil {
			return w.lateArrival(fw, it), nil
		}
	}
	w.live.SetRow(it.ID, it.Evidence)
	if fresh {
		w.undecided++
	}
	if w.live.Len() >= w.size && w.undecided >= w.slide {
		return []*windowJob{w.fire(false)}, nil
	}
	return nil, nil
}

// flush returns the final partial window, or nil if nothing is pending.
func (w *windower) flush() []*windowJob {
	if w.undecided == 0 {
		return nil
	}
	return []*windowJob{w.fire(true)}
}

// lateArrival routes a re-arrival of an already-decided item: under the
// supersede policy the window that decided it re-fires with the refreshed
// evidence, linked to its previous emission; under the drop policy the
// re-arrival is counted and discarded.
func (w *windower) lateArrival(fw *firedWindow, it Item) []*windowJob {
	if w.latePolicy == LateDrop {
		streamLateItems.With(w.view, "dropped").Inc()
		return nil
	}
	streamLateItems.With(w.view, "superseded").Inc()
	fw.m.SetRow(it.ID, it.Evidence)
	fw.gen++
	j := &windowJob{
		seq:     w.seq,
		items:   fw.items,
		m:       fw.m.Clone(),
		decide:  fw.decided,
		stats:   windowStats(fw.m, fw.m.Keys(), nil),
		firedAt: time.Now(),
		late:    true,
		gen:     fw.gen,
		prev:    detach(fw.last),
	}
	w.seq++
	fw.last = j
	return []*windowJob{j}
}

// fire snapshots the live window into a job and slides it forward.
func (w *windower) fire(partial bool) *windowJob {
	items := append([]evidence.Item(nil), w.live.Items()...)
	j := &windowJob{
		seq:        w.seq,
		items:      items,
		m:          w.live.Clone(),
		decideFrom: len(items) - w.undecided,
		partial:    partial,
		stats:      windowStats(w.live, w.live.Keys(), nil),
		firedAt:    time.Now(),
	}
	w.seq++
	w.undecided = 0
	if !partial {
		w.retain(j)
	}
	// Evict the oldest slide-worth of items so the next window overlaps
	// the current one by Window−Slide items (none, for tumbling windows).
	evict := w.slide
	if partial || evict > w.live.Len() {
		evict = w.live.Len()
	}
	w.live.RemoveFirst(evict)
	return j
}

// retain remembers a fired window for late-data routing and expires the
// oldest beyond the retention horizon.
func (w *windower) retain(j *windowJob) {
	fw := &firedWindow{
		m:       j.m.Clone(),
		items:   j.items,
		decided: j.items[j.decideFrom:],
		last:    detach(j),
	}
	for _, d := range fw.decided {
		w.decidedBy[d] = fw
	}
	w.retained = append(w.retained, fw)
	for len(w.retained) > w.retention {
		old := w.retained[0]
		w.retained = w.retained[1:]
		for _, d := range old.decided {
			if w.decidedBy[d] == old {
				delete(w.decidedBy, d)
			}
		}
	}
}

// detach shallow-copies a job with its supersession link cleared, so
// retained predecessors never form unbounded chains.
func detach(j *windowJob) *windowJob {
	if j == nil {
		return nil
	}
	c := *j
	c.prev = nil
	return &c
}

// windowStats adds one WindowStats entry per numeric column of m named
// in keys to stats (allocated on first use) and returns it. It is the one
// statistics path of the stream: windowers call it on the window map when
// they fire or re-fire, and deriveResult calls it for the QA score tags
// of the enacted window. Each entry is evidence.ComputeStats over the
// column in m's item order — the arithmetic the §5.1 classifier cuts
// with — so the reported thresholds are exactly the ones in force, and
// the same content always yields bit-identical stats. A column with no
// numeric value, or with a non-finite mean, stddev or cut point (inline
// "NaN" or ±Inf evidence), is omitted: it has no usable thresholds, and
// JSON cannot carry it.
func windowStats(m *evidence.Map, keys []evidence.Key, stats map[string]WindowStats) map[string]WindowStats {
	for _, k := range keys {
		st := m.ColumnStats(k)
		lo, hi := st.Mean-st.StdDev, st.Mean+st.StdDev
		if st.N == 0 || !finite(lo) || !finite(hi) {
			continue
		}
		if stats == nil {
			stats = make(map[string]WindowStats)
		}
		stats[k.Value()] = WindowStats{N: st.N, Mean: st.Mean, StdDev: st.StdDev, Lo: lo, Hi: hi}
	}
	return stats
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
