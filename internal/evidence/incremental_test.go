package evidence

import (
	"fmt"
	"testing"

	"qurator/internal/rdf"
)

func incItem(i int) Item { return rdf.IRI(fmt.Sprintf("urn:lsid:x.org:ns:%d", i)) }

func TestRemoveFirst(t *testing.T) {
	key := rdf.IRI("urn:k")
	m := NewMap(incItem(0), incItem(1), incItem(2), incItem(3), incItem(4))
	for i := 0; i < 5; i++ {
		m.Set(incItem(i), key, Float(float64(i)))
	}

	removed := m.RemoveFirst(2)
	if len(removed) != 2 || removed[0] != incItem(0) || removed[1] != incItem(1) {
		t.Fatalf("removed = %v, want the two oldest items", removed)
	}
	want := []Item{incItem(2), incItem(3), incItem(4)}
	got := m.Items()
	if len(got) != len(want) {
		t.Fatalf("items = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("items[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if m.HasItem(incItem(0)) || m.Has(incItem(1), key) {
		t.Error("evicted items still present")
	}
	// Index re-based: appends and positional lookups stay consistent.
	m.AddItem(incItem(9))
	if m.ItemAt(0) != incItem(2) || m.ItemAt(3) != incItem(9) {
		t.Errorf("order after RemoveFirst+AddItem = %v", m.Items())
	}

	if r := m.RemoveFirst(0); r != nil {
		t.Errorf("RemoveFirst(0) = %v, want nil", r)
	}
	if r := m.RemoveFirst(100); len(r) != 4 {
		t.Errorf("RemoveFirst(overlarge) removed %d, want 4", len(r))
	}
	if m.Len() != 0 {
		t.Errorf("Len after draining = %d", m.Len())
	}
}

func TestSetRow(t *testing.T) {
	k1, k2 := rdf.IRI("urn:k1"), rdf.IRI("urn:k2")
	m := NewMap()
	m.SetRow(incItem(0), map[Key]Value{k1: Float(1), k2: Null})
	if !m.HasItem(incItem(0)) || !m.Has(incItem(0), k1) {
		t.Fatal("SetRow did not append item/evidence")
	}
	if m.Has(incItem(0), k2) {
		t.Error("SetRow stored a Null value")
	}
}
