package evidence

// This file holds the incremental primitives the streaming enactor
// (internal/stream) builds on: ordered prefix eviction and row append on
// a live Amap, so sliding windows evolve without rebuilding the map.

// RemoveFirst removes the n oldest items (the order prefix) and their
// evidence rows in one pass, returning the removed items in order. It is
// the ordered-eviction API for sliding windows: one call is O(map size)
// total, however many items it evicts.
func (m *Map) RemoveFirst(n int) []Item {
	if n <= 0 {
		return nil
	}
	if n > len(m.order) {
		n = len(m.order)
	}
	removed := append([]Item(nil), m.order[:n]...)
	for _, it := range removed {
		delete(m.index, it)
		delete(m.values, it)
	}
	m.order = append(m.order[:0], m.order[n:]...)
	for i, it := range m.order {
		m.index[it] = i
	}
	return removed
}

// SetRow appends an item together with its evidence row in one call — the
// streaming append: a live window Amap grows one arriving item at a time
// without rebuilding. Null values are skipped.
func (m *Map) SetRow(it Item, row map[Key]Value) {
	m.AddItem(it)
	for k, v := range row {
		if v.IsNull() {
			continue
		}
		m.Set(it, k, v)
	}
}
