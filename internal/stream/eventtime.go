package stream

import (
	"fmt"
	"sort"
	"time"

	"qurator/internal/evidence"
)

// Event-time window kinds, carried on WindowResult.Kind.
const (
	KindTumbling = "tumbling"
	KindSliding  = "sliding"
	KindSession  = "session"
)

// eventWindower implements event-time windowing with low-watermark
// progress tracking and bounded lateness.
//
// Every arriving item must carry the declared event-time evidence key
// (unix milliseconds, or an RFC 3339 string). The low watermark trails
// the maximum event time seen by MaxOutOfOrder; a window fires once the
// watermark passes its end, so items up to MaxOutOfOrder out of order
// are still windowed as if the feed were sorted. With MaxOutOfOrder = 0
// an in-order feed fires each window exactly when the first item past
// its end arrives — the configuration under which event-time tumbling
// windows coincide with count windows (the equivalence law tested in
// the experiment suite).
//
// Decide-once semantics mirror the count windower's: the first window to
// fire containing an item decides it; overlapping sliding windows re-
// enact it purely as context. Fired windows are retained until the
// watermark passes end + AllowedLateness; a late item landing inside a
// retained window re-fires it as a superseding emission (decide set =
// the original decisions, plus the late item if it is new), linked to
// the replaced emission via WindowResult.Supersedes. Later items are
// dropped and counted.
type eventWindower struct {
	cfg  Config
	view string
	seq  int

	maxEvent time.Time
	sawEvent bool

	open     map[int64]*eWindow // duration windows by aligned start (UnixNano)
	sessions []*eWindow         // open session windows
	fired    []*eWindow         // retained fired windows, fire order

	// refs counts how many open/retained windows hold each item; decided
	// marks items some fire has already decided. Entries die when the
	// last window holding the item is released, bounding both maps by the
	// live window state rather than the stream length.
	refs    map[evidence.Item]int
	decided map[evidence.Item]bool
}

// eWindow is one event-time window, open or retained-after-fire.
type eWindow struct {
	kind       string
	start, end time.Time
	m          *evidence.Map

	gen        int        // fire generation (0 until first re-fire)
	lastJob    *windowJob // most recent emitted content
	lastDecide []evidence.Item
}

func newEventWindower(cfg Config, view string) *eventWindower {
	return &eventWindower{
		cfg:     cfg,
		view:    view,
		open:    make(map[int64]*eWindow),
		refs:    make(map[evidence.Item]int),
		decided: make(map[evidence.Item]bool),
	}
}

// wm is the low watermark: no item with an event time before it is
// expected any more (those that do arrive are late data).
func (ew *eventWindower) wm() time.Time {
	return ew.maxEvent.Add(-ew.cfg.MaxOutOfOrder)
}

// eventTimeOf extracts an item's event time from its declared evidence
// value: an integer or float is unix milliseconds, a string is RFC 3339.
func eventTimeOf(v evidence.Value) (time.Time, error) {
	if i, ok := v.AsInt(); ok {
		return time.UnixMilli(i), nil
	}
	if f, ok := v.AsFloat(); ok {
		return time.UnixMilli(int64(f)), nil
	}
	if s := v.AsString(); s != "" {
		if t, err := time.Parse(time.RFC3339Nano, s); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("not a unix-millisecond or RFC 3339 timestamp: %s", v)
}

func (ew *eventWindower) push(it Item) ([]*windowJob, error) {
	v, ok := it.Evidence[ew.cfg.EventTimeKey]
	if !ok || v.IsNull() {
		return nil, fmt.Errorf("item %s lacks event-time evidence %s", it.ID.Value(), ew.cfg.EventTimeKey.Value())
	}
	t, err := eventTimeOf(v)
	if err != nil {
		return nil, fmt.Errorf("item %s event time: %w", it.ID.Value(), err)
	}
	if !ew.sawEvent || t.After(ew.maxEvent) {
		ew.maxEvent = t
		ew.sawEvent = true
	}
	streamWatermark.With(ew.view).Set(float64(ew.wm().UnixNano()) / 1e9)

	var jobs []*windowJob
	if ew.cfg.SessionGap > 0 {
		ew.sessionAdd(it, t, &jobs)
	} else {
		ew.durationAdd(it, t, &jobs)
	}
	ew.advance(&jobs)
	return jobs, nil
}

// flush fires every still-open window as a partial window, in end order.
func (ew *eventWindower) flush() []*windowJob {
	due := ew.sessions
	for _, win := range ew.open {
		due = append(due, win)
	}
	sortWindows(due)
	var jobs []*windowJob
	for _, win := range due {
		jobs = append(jobs, ew.fire(win, true))
	}
	ew.open = map[int64]*eWindow{}
	ew.sessions = nil
	return jobs
}

// durationAdd routes one item into its tumbling/sliding windows: open
// windows gain it, missing future windows are created, and already-fired
// windows within the lateness bound are superseded. An item no window
// can take any more is dropped and counted.
func (ew *eventWindower) durationAdd(it Item, t time.Time, jobs *[]*windowJob) {
	kind := KindSliding
	if ew.cfg.SlideDuration == ew.cfg.WindowDuration {
		kind = KindTumbling
	}
	routed := false
	for _, start := range ew.startsFor(t) {
		if win := ew.open[start.UnixNano()]; win != nil {
			ew.addToWindow(win, it, t)
			routed = true
			continue
		}
		end := start.Add(ew.cfg.WindowDuration)
		if end.After(ew.wm()) {
			win := &eWindow{kind: kind, start: start, end: end, m: evidence.NewMap()}
			ew.open[start.UnixNano()] = win
			ew.addToWindow(win, it, t)
			routed = true
			continue
		}
		// The window is past: it fired already (or would have, had it had
		// items). If it is retained within the lateness bound, the item is
		// late data and supersedes its emission.
		if fw := ew.retainedAt(start); fw != nil && ew.cfg.LatePolicy != LateDrop {
			*jobs = append(*jobs, ew.supersede(fw, it, t))
			routed = true
		}
	}
	if !routed {
		streamLateItems.With(ew.view, "dropped").Inc()
	}
}

// sessionAdd routes one item into session windows: a retained fired
// session containing the event time is superseded; otherwise every open
// session within SessionGap of the item merges with it (or a fresh
// session starts).
func (ew *eventWindower) sessionAdd(it Item, t time.Time, jobs *[]*windowJob) {
	for _, fw := range ew.fired {
		if !t.Before(fw.start) && t.Before(fw.end) {
			if ew.cfg.LatePolicy == LateDrop {
				streamLateItems.With(ew.view, "dropped").Inc()
				return
			}
			*jobs = append(*jobs, ew.supersede(fw, it, t))
			return
		}
	}
	var overlap []*eWindow
	for _, s := range ew.sessions {
		if t.Before(s.end) && t.Add(ew.cfg.SessionGap).After(s.start) {
			overlap = append(overlap, s)
		}
	}
	if len(overlap) == 0 {
		win := &eWindow{kind: KindSession, start: t, end: t.Add(ew.cfg.SessionGap), m: evidence.NewMap()}
		ew.sessions = append(ew.sessions, win)
		ew.addToWindow(win, it, t)
		return
	}
	win := ew.mergeSessions(overlap)
	ew.addToWindow(win, it, t)
}

// mergeSessions collapses overlapping open sessions into the earliest
// one.
func (ew *eventWindower) mergeSessions(wins []*eWindow) *eWindow {
	sortWindows(wins)
	base := wins[0]
	if len(wins) == 1 {
		return base
	}
	gone := make(map[*eWindow]bool, len(wins)-1)
	for _, w := range wins[1:] {
		gone[w] = true
		for _, id := range w.m.Items() {
			if base.m.HasItem(id) {
				ew.refs[id]-- // two copies collapse into one
			}
			base.m.SetRow(id, w.m.Row(id))
		}
		if w.end.After(base.end) {
			base.end = w.end
		}
		if w.start.Before(base.start) {
			base.start = w.start
		}
	}
	keep := ew.sessions[:0]
	for _, s := range ew.sessions {
		if !gone[s] {
			keep = append(keep, s)
		}
	}
	ew.sessions = keep
	return base
}

// addToWindow inserts or refreshes one item in a window; a session
// window also stretches its bounds to cover the item.
func (ew *eventWindower) addToWindow(win *eWindow, it Item, t time.Time) {
	fresh := !win.m.HasItem(it.ID)
	win.m.SetRow(it.ID, it.Evidence)
	if fresh {
		ew.refs[it.ID]++
	}
	if win.kind == KindSession {
		if e := t.Add(ew.cfg.SessionGap); e.After(win.end) {
			win.end = e
		}
		if t.Before(win.start) {
			win.start = t
		}
	}
}

// supersede re-fires a retained fired window with a late arrival folded
// in: the whole window re-enacts, the original decisions (plus the late
// item, if new and undecided) re-emit, and the job links back to the
// emission it replaces.
func (ew *eventWindower) supersede(fw *eWindow, it Item, t time.Time) *windowJob {
	streamLateItems.With(ew.view, "superseded").Inc()
	fresh := !fw.m.HasItem(it.ID)
	ew.addToWindow(fw, it, t)
	if fresh && !ew.decided[it.ID] {
		ew.decided[it.ID] = true
		fw.lastDecide = append(fw.lastDecide, it.ID)
	}
	fw.gen++
	j := &windowJob{
		seq:     ew.seq,
		items:   append([]evidence.Item(nil), fw.m.Items()...),
		m:       fw.m.Clone(),
		decide:  append([]evidence.Item(nil), fw.lastDecide...),
		stats:   windowStats(fw.m, fw.m.Keys(), nil),
		firedAt: time.Now(),
		kind:    fw.kind,
		start:   fw.start,
		end:     fw.end,
		gen:     fw.gen,
		late:    true,
		prev:    detach(fw.lastJob),
	}
	ew.seq++
	fw.lastJob = j
	return j
}

// advance fires every open window the watermark has passed and expires
// retained windows past their lateness bound.
func (ew *eventWindower) advance(jobs *[]*windowJob) {
	wm := ew.wm()
	var due []*eWindow
	if ew.cfg.SessionGap > 0 {
		keep := ew.sessions[:0]
		for _, s := range ew.sessions {
			if !s.end.After(wm) {
				due = append(due, s)
			} else {
				keep = append(keep, s)
			}
		}
		ew.sessions = keep
	} else {
		for key, win := range ew.open {
			if !win.end.After(wm) {
				due = append(due, win)
				delete(ew.open, key)
			}
		}
	}
	sortWindows(due)
	for _, win := range due {
		*jobs = append(*jobs, ew.fire(win, false))
	}
	keep := ew.fired[:0]
	for _, fw := range ew.fired {
		if wm.Before(fw.end.Add(ew.cfg.AllowedLateness)) {
			keep = append(keep, fw)
		} else {
			ew.release(fw)
		}
	}
	ew.fired = keep
}

// fire emits one window: the items no earlier fire decided are decided
// here; complete windows are retained for late data when the lateness
// bound and policy allow it.
func (ew *eventWindower) fire(win *eWindow, partial bool) *windowJob {
	items := append([]evidence.Item(nil), win.m.Items()...)
	decide := make([]evidence.Item, 0, len(items))
	for _, id := range items {
		if !ew.decided[id] {
			ew.decided[id] = true
			decide = append(decide, id)
		}
	}
	win.lastDecide = decide
	j := &windowJob{
		seq:     ew.seq,
		items:   items,
		m:       win.m.Clone(),
		decide:  decide,
		partial: partial,
		stats:   windowStats(win.m, win.m.Keys(), nil),
		firedAt: time.Now(),
		kind:    win.kind,
		start:   win.start,
		end:     win.end,
	}
	ew.seq++
	win.lastJob = j
	if !partial && ew.cfg.AllowedLateness > 0 && ew.cfg.LatePolicy != LateDrop {
		ew.fired = append(ew.fired, win)
	} else {
		ew.release(win)
	}
	return j
}

// release drops a window's hold on its items; the last release of an
// item clears its refs/decided entries.
func (ew *eventWindower) release(win *eWindow) {
	for _, id := range win.m.Items() {
		if ew.refs[id]--; ew.refs[id] <= 0 {
			delete(ew.refs, id)
			delete(ew.decided, id)
		}
	}
}

// retainedAt finds the retained fired duration window starting at start.
func (ew *eventWindower) retainedAt(start time.Time) *eWindow {
	for _, fw := range ew.fired {
		if fw.start.Equal(start) {
			return fw
		}
	}
	return nil
}

// startsFor returns the aligned starts (ascending) of every duration
// window containing event time t: the multiples of SlideDuration in
// (t − WindowDuration, t].
func (ew *eventWindower) startsFor(t time.Time) []time.Time {
	sz := ew.cfg.WindowDuration.Nanoseconds()
	sl := ew.cfg.SlideDuration.Nanoseconds()
	tn := t.UnixNano()
	last := floorDiv(tn, sl) * sl
	var starts []time.Time
	for s := last; s > tn-sz; s -= sl {
		starts = append(starts, time.Unix(0, s))
	}
	for i, j := 0, len(starts)-1; i < j; i, j = i+1, j-1 {
		starts[i], starts[j] = starts[j], starts[i]
	}
	return starts
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// sortWindows orders windows by (end, start) — the deterministic fire
// order when one watermark advance closes several.
func sortWindows(wins []*eWindow) {
	sort.Slice(wins, func(i, j int) bool {
		if !wins[i].end.Equal(wins[j].end) {
			return wins[i].end.Before(wins[j].end)
		}
		return wins[i].start.Before(wins[j].start)
	})
}
