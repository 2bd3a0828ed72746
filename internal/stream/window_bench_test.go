package stream

import (
	"fmt"
	"testing"

	"qurator/internal/evidence"
	"qurator/internal/rdf"
)

// BenchmarkWindowEviction is the regression benchmark for the quadratic
// fire: eviction used to call w.live.Items() (a full copy of the window)
// once per evicted item, making each fire O(window²). A fire is now
// O(window), reusing the snapshot it already took.
func BenchmarkWindowEviction(b *testing.B) {
	key := evidence.Key(rdf.IRI("urn:q:HitRatio"))
	for _, size := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("window=%d", size), func(b *testing.B) {
			items := make([]Item, 2*size)
			for i := range items {
				items[i] = Item{
					ID:       evidence.Item(rdf.IRI(fmt.Sprintf("urn:item:%d", i))),
					Evidence: map[evidence.Key]evidence.Value{key: evidence.Float(float64(i))},
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				w := newWindower(Config{Window: size, Slide: size}, "bench")
				fires := 0
				for _, it := range items {
					js, _ := w.push(it)
					for _, j := range js {
						fires++
						if len(j.items) != size {
							b.Fatalf("fire carried %d items, want %d", len(j.items), size)
						}
					}
				}
				if fires != 2 {
					b.Fatalf("fires = %d, want 2", fires)
				}
				if w.live.Len() != 0 {
					b.Fatalf("live window not emptied: %d", w.live.Len())
				}
			}
		})
	}
}

// TestFireEvictsOldestSlide pins the eviction semantics the benchmark
// relies on: after a sliding fire, the oldest Slide items are gone and
// the next fire's statistics cover only the survivors plus new arrivals.
func TestFireEvictsOldestSlide(t *testing.T) {
	key := evidence.Key(rdf.IRI("urn:q:HitRatio"))
	w := newWindower(Config{Window: 4, Slide: 2}, "test")
	var jobs []*windowJob
	push := func(i int) {
		js, _ := w.push(Item{
			ID:       evidence.Item(rdf.IRI(fmt.Sprintf("urn:item:%d", i))),
			Evidence: map[evidence.Key]evidence.Value{key: evidence.Float(float64(i))},
		})
		jobs = append(jobs, js...)
	}
	for i := 0; i < 6; i++ {
		push(i)
	}
	if len(jobs) != 2 {
		t.Fatalf("fires = %d, want 2", len(jobs))
	}
	// After the second fire (window items 2..5, slide 2) items 2 and 3
	// are evicted; 4 and 5 remain as context.
	if w.live.Len() != 2 {
		t.Fatalf("live window = %d items, want 2", w.live.Len())
	}
	for _, gone := range []int{0, 1, 2, 3} {
		if w.live.HasItem(evidence.Item(rdf.IRI(fmt.Sprintf("urn:item:%d", gone)))) {
			t.Errorf("item %d should have been evicted", gone)
		}
	}
	// The third fire holds the survivors 4, 5 and the arrivals 6, 7: its
	// statistics are exactly ComputeStats over those values, in order.
	push(6)
	push(7)
	if len(jobs) != 3 {
		t.Fatalf("fires = %d, want 3", len(jobs))
	}
	want := evidence.ComputeStats([]float64{4, 5, 6, 7})
	got := jobs[2].stats[key.Value()]
	if got != (WindowStats{N: 4, Mean: want.Mean, StdDev: want.StdDev, Lo: want.Mean - want.StdDev, Hi: want.Mean + want.StdDev}) {
		t.Errorf("third fire stats = %+v, want %+v over the survivors and arrivals", got, want)
	}
}
