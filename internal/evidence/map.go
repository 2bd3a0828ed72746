package evidence

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"qurator/internal/rdf"
)

// Item identifies a data item; it is an RDF term, typically an
// LSID-wrapped URI.
type Item = rdf.Term

// Key identifies a column of the annotation map: an evidence-type IRI
// (e.g. q:HitRatio), a QA tag IRI (e.g. q:HR_MC with syntactic type
// score), or a classification-model IRI (e.g. q:PIScoreClassification).
type Key = rdf.Term

// Map is an annotation map: an ordered collection of data items, each
// carrying evidence values keyed by evidence type / tag. The item order
// is significant — data sets in the running example are ranked protein
// identification lists — and is preserved by all operations.
//
// Map is not safe for concurrent mutation; operators receive and return
// maps by value-semantics methods (Clone, Project, Merge).
type Map struct {
	order  []Item
	index  map[Item]int
	values map[Item]map[Key]Value
}

// NewMap returns an annotation map over the given items, in order.
// Duplicate items are kept once, at their first position.
func NewMap(items ...Item) *Map {
	m := &Map{
		index:  make(map[Item]int, len(items)),
		values: make(map[Item]map[Key]Value, len(items)),
	}
	for _, it := range items {
		m.AddItem(it)
	}
	return m
}

// AddItem appends an item (no-op if present). It reports whether the item
// was added.
func (m *Map) AddItem(it Item) bool {
	if _, ok := m.index[it]; ok {
		return false
	}
	m.index[it] = len(m.order)
	m.order = append(m.order, it)
	return true
}

// HasItem reports whether the item is in the map's data set.
func (m *Map) HasItem(it Item) bool {
	_, ok := m.index[it]
	return ok
}

// Items returns a copy of the data set in order. Callers may freely keep
// or mutate the returned slice; it never aliases the map's internal
// order, so concurrent readers of aliased views (the shard-parallel data
// plane shares maps across goroutines) cannot corrupt each other's
// iteration order.
func (m *Map) Items() []Item {
	if len(m.order) == 0 {
		return nil
	}
	return append([]Item(nil), m.order...)
}

// ItemAt returns the item at position i in the data set order.
func (m *Map) ItemAt(i int) Item { return m.order[i] }

// Len returns the number of data items.
func (m *Map) Len() int { return len(m.order) }

// Set associates an evidence value with (item, key), adding the item to
// the data set if absent. Setting Null removes the entry.
func (m *Map) Set(it Item, key Key, v Value) {
	m.AddItem(it)
	if v.IsNull() {
		if row, ok := m.values[it]; ok {
			delete(row, key)
			if len(row) == 0 {
				delete(m.values, it)
			}
		}
		return
	}
	row, ok := m.values[it]
	if !ok {
		row = make(map[Key]Value)
		m.values[it] = row
	}
	row[key] = v
}

// Get returns the evidence value for (item, key); Null when absent.
func (m *Map) Get(it Item, key Key) Value {
	if row, ok := m.values[it]; ok {
		if v, ok := row[key]; ok {
			return v
		}
	}
	return Null
}

// Has reports whether a non-null value exists for (item, key).
func (m *Map) Has(it Item, key Key) bool {
	return !m.Get(it, key).IsNull()
}

// Keys returns the sorted set of keys that have at least one non-null
// value anywhere in the map.
func (m *Map) Keys() []Key {
	seen := map[Key]struct{}{}
	for _, row := range m.values {
		for k := range row {
			seen[k] = struct{}{}
		}
	}
	out := make([]Key, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return rdf.CompareTerms(out[i], out[j]) < 0 })
	return out
}

// Row returns a copy of the item's (key, value) entries.
func (m *Map) Row(it Item) map[Key]Value {
	out := make(map[Key]Value, len(m.values[it]))
	for k, v := range m.values[it] {
		out[k] = v
	}
	return out
}

// SetClass records a class assignment {d → (model, label)} — the output
// form of a classifier QA (paper §4.1).
func (m *Map) SetClass(it Item, model rdf.Term, label rdf.Term) {
	m.Set(it, model, TermValue(label))
}

// Class returns the class label assigned to the item under the given
// classification model, or a zero Term if unassigned.
func (m *Map) Class(it Item, model rdf.Term) rdf.Term {
	if t, ok := m.Get(it, model).AsTerm(); ok {
		return t
	}
	return rdf.Term{}
}

// Clone returns a deep copy.
func (m *Map) Clone() *Map {
	out := NewMap(m.order...)
	for it, row := range m.values {
		for k, v := range row {
			out.Set(it, k, v)
		}
	}
	return out
}

// Project returns a new map restricted to the given items (in the given
// order), carrying over their evidence entries. Items absent from m are
// included with no evidence.
func (m *Map) Project(items []Item) *Map {
	out := NewMap(items...)
	for _, it := range items {
		for k, v := range m.values[it] {
			out.Set(it, k, v)
		}
	}
	return out
}

// Filter returns a new map containing only the items for which keep
// returns true, preserving order and evidence.
func (m *Map) Filter(keep func(Item) bool) *Map {
	var kept []Item
	for _, it := range m.order {
		if keep(it) {
			kept = append(kept, it)
		}
	}
	return m.Project(kept)
}

// Merge copies every item and evidence entry of other into m, appending
// unseen items after m's existing ones. On key conflicts, other wins —
// this implements the "consolidate assertions" step the quality-view
// compiler inserts after multiple QAs (paper §6.1).
func (m *Map) Merge(other *Map) {
	for _, it := range other.order {
		m.AddItem(it)
		for k, v := range other.values[it] {
			m.Set(it, k, v)
		}
	}
}

// Shard splits the map into order-preserving item shards of at most size
// items each, carrying the items' full evidence rows. Concatenating the
// shards in order (MergeShards) reconstructs the map exactly. A size ≤ 0,
// or one no smaller than the data set, yields a single shard aliasing m
// itself — the serial fast path costs nothing. Shards are independent
// copies, safe to hand to concurrent workers.
func (m *Map) Shard(size int) []*Map {
	if size <= 0 || len(m.order) <= size {
		return []*Map{m}
	}
	shards := make([]*Map, 0, (len(m.order)+size-1)/size)
	for start := 0; start < len(m.order); start += size {
		end := start + size
		if end > len(m.order) {
			end = len(m.order)
		}
		shards = append(shards, m.Project(m.order[start:end]))
	}
	return shards
}

// MergeShards concatenates item shards back into one map, preserving
// shard order and each shard's internal item order — the inverse of
// Shard for disjoint shards. Evidence conflicts (only possible when the
// shards overlap) resolve last-shard-wins, matching Merge.
func MergeShards(shards []*Map) *Map {
	if len(shards) == 1 {
		return shards[0]
	}
	out := NewMap()
	for _, s := range shards {
		if s != nil {
			out.Merge(s)
		}
	}
	return out
}

// WriteCanonical writes a deterministic, collision-free byte encoding of
// the map: the item list in order, then each item's evidence row with
// keys sorted, every field length-prefixed. Two maps produce the same
// encoding iff they carry the same items in the same order with the same
// evidence — the payload encoding behind content-addressed cache keys
// (internal/qcache).
func (m *Map) WriteCanonical(w io.Writer) error {
	var scratch [binary.MaxVarintLen64]byte
	writeBytes := func(s string) error {
		n := binary.PutUvarint(scratch[:], uint64(len(s)))
		if _, err := w.Write(scratch[:n]); err != nil {
			return err
		}
		_, err := io.WriteString(w, s)
		return err
	}
	writeInt := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := w.Write(scratch[:n])
		return err
	}
	if err := writeInt(uint64(len(m.order))); err != nil {
		return err
	}
	for _, it := range m.order {
		if err := writeBytes(it.String()); err != nil {
			return err
		}
	}
	for _, it := range m.order {
		row := m.values[it]
		keys := make([]Key, 0, len(row))
		for k := range row {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return rdf.CompareTerms(keys[i], keys[j]) < 0 })
		if err := writeInt(uint64(len(keys))); err != nil {
			return err
		}
		for _, k := range keys {
			v := row[k]
			if err := writeBytes(k.String()); err != nil {
				return err
			}
			if err := writeBytes(v.Kind().String()); err != nil {
				return err
			}
			if err := writeBytes(v.String()); err != nil {
				return err
			}
		}
	}
	return nil
}

// FloatColumn returns the values of key for every item that has a numeric
// value, in item order, together with the owning items.
func (m *Map) FloatColumn(key Key) (items []Item, vals []float64) {
	for _, it := range m.order {
		if f, ok := m.Get(it, key).AsFloat(); ok {
			items = append(items, it)
			vals = append(vals, f)
		}
	}
	return items, vals
}

// String renders a compact table for debugging.
func (m *Map) String() string {
	var b strings.Builder
	keys := m.Keys()
	fmt.Fprintf(&b, "Amap[%d items, %d keys]\n", len(m.order), len(keys))
	for _, it := range m.order {
		b.WriteString("  ")
		b.WriteString(it.String())
		for _, k := range keys {
			if v := m.Get(it, k); !v.IsNull() {
				fmt.Fprintf(&b, " %s=%s", shortKey(k), v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func shortKey(k Key) string {
	v := k.Value()
	for i := len(v) - 1; i >= 0; i-- {
		if v[i] == '#' || v[i] == '/' || v[i] == ':' {
			return v[i+1:]
		}
	}
	return v
}

// Stats holds summary statistics of a numeric evidence column.
type Stats struct {
	N            int
	Mean, StdDev float64
	Min, Max     float64
}

// ColumnStats computes mean and (population) standard deviation of the
// numeric values under key — the quantities the paper's three-way
// classifier thresholds on (§5.1: avg ± stddev). Values are taken in item
// order, so the result is bit-identical to ComputeStats over the column.
func (m *Map) ColumnStats(key Key) Stats {
	var vals []float64
	for _, it := range m.order {
		if f, ok := m.Get(it, key).AsFloat(); ok {
			vals = append(vals, f)
		}
	}
	return ComputeStats(vals)
}

// ComputeStats computes summary statistics over a sample.
func ComputeStats(vals []float64) Stats {
	s := Stats{N: len(vals)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = vals[0], vals[0]
	sum := 0.0
	for _, v := range vals {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	varSum := 0.0
	for _, v := range vals {
		d := v - s.Mean
		varSum += d * d
	}
	s.StdDev = math.Sqrt(varSum / float64(s.N))
	return s
}
