package stream

import (
	"fmt"
	"testing"

	"qurator/internal/evidence"
	"qurator/internal/rdf"
)

func wbItem(i int, key evidence.Key, v float64) Item {
	return Item{
		ID:       rdf.IRI(fmt.Sprintf("urn:item:%d", i)),
		Evidence: map[evidence.Key]evidence.Value{key: evidence.Float(v)},
	}
}

// TestEvictedReArrivalRoutedAsLate is the satellite-3 regression: an
// item evicted from the live window that re-arrives used to be counted
// fresh — filling a slot in the next window and getting silently decided
// a second time. It must instead be routed to the retained window that
// decided it, as a superseding late re-fire.
func TestEvictedReArrivalRoutedAsLate(t *testing.T) {
	key := evidence.Key(rdf.IRI("urn:q:HitRatio"))
	w := newWindower(Config{Window: 2, Slide: 2}, "late")
	var fired []*windowJob
	for i := 0; i < 2; i++ {
		js, err := w.push(wbItem(i, key, float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		fired = append(fired, js...)
	}
	if len(fired) != 1 || w.live.Len() != 0 {
		t.Fatalf("setup: fires=%d live=%d, want 1 fire and an empty live window", len(fired), w.live.Len())
	}

	// Item 0 was decided by the fired window and evicted; its re-arrival
	// is late data, not a fresh item.
	js, err := w.push(wbItem(0, key, 42))
	if err != nil {
		t.Fatal(err)
	}
	if len(js) != 1 {
		t.Fatalf("re-arrival fired %d jobs, want 1 superseding re-fire", len(js))
	}
	re := js[0]
	if !re.late || re.gen != 1 || re.prev == nil {
		t.Fatalf("re-fire = late=%v gen=%d prev=%v, want a gen-1 superseding job", re.late, re.gen, re.prev)
	}
	if got := re.decided(); len(got) != 2 {
		t.Fatalf("re-fire decides %d items, want the original 2", len(got))
	}
	if v, ok := re.m.Get(rdf.IRI("urn:item:0"), key).AsFloat(); !ok || v != 42 {
		t.Errorf("re-fire content lacks the refreshed evidence (got %v, %v)", v, ok)
	}
	if w.live.Len() != 0 {
		t.Error("late re-arrival leaked into the live window")
	}
	// The journal key of the re-fire must differ from the original even
	// for identical content — the generation is part of the identity.
	e := &Enactor{views: []streamView{{name: "late"}}}
	if k0, k1 := e.windowKey("late", *fired[0]), e.windowKey("late", *re); k0 == k1 {
		t.Error("superseding re-fire maps to the original journal key")
	}

	// Under the drop policy the re-arrival is discarded instead.
	wd := newWindower(Config{Window: 2, Slide: 2, LatePolicy: LateDrop}, "latedrop")
	for i := 0; i < 2; i++ {
		if _, err := wd.push(wbItem(i, key, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	js, err = wd.push(wbItem(0, key, 42))
	if err != nil {
		t.Fatal(err)
	}
	if len(js) != 0 || wd.live.Len() != 0 {
		t.Fatalf("LateDrop: jobs=%d live=%d, want the re-arrival discarded", len(js), wd.live.Len())
	}
}

// TestLateRetentionHorizonExpires pins the documented bound: re-arrivals
// older than the LateRetention horizon fall back to fresh-item handling.
func TestLateRetentionHorizonExpires(t *testing.T) {
	key := evidence.Key(rdf.IRI("urn:q:HitRatio"))
	w := newWindower(Config{Window: 2, Slide: 2, LateRetention: 1}, "horizon")
	for i := 0; i < 4; i++ { // two fires; retention 1 keeps only the second
		if _, err := w.push(wbItem(i, key, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.retained) != 1 {
		t.Fatalf("retained %d windows, want 1", len(w.retained))
	}
	// Item 0's window expired from retention: its re-arrival is fresh.
	js, err := w.push(wbItem(0, key, 9))
	if err != nil {
		t.Fatal(err)
	}
	if len(js) != 0 {
		t.Fatalf("expired re-arrival fired %d jobs, want none (fresh handling)", len(js))
	}
	if w.live.Len() != 1 {
		t.Fatalf("fresh-handled re-arrival missing from the live window (len %d)", w.live.Len())
	}
	// Item 2's window is still retained: its re-arrival is late.
	js, err = w.push(wbItem(2, key, 9))
	if err != nil {
		t.Fatal(err)
	}
	if len(js) != 1 || !js[0].late {
		t.Fatalf("retained re-arrival = %d jobs, want 1 late re-fire", len(js))
	}
}
