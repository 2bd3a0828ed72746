package rdf

import "maps"

// smallNode is the most entries an index node holds in its inline slice.
// Most nodes are tiny — an annotation's evidence node has a handful of
// predicates with one object each — and a linear scan over up to eight
// terms beats hashing them, while a Go map costs a ~456 B group even for
// one 56 B Term key. A node that grows past smallNode becomes a map.
const smallNode = 8

// node is one level of an index rotation: a term-keyed map that lives in
// small while m is nil, and in m (with small nil) once it has outgrown
// smallNode.
//
// gen is the write generation that owns the node: a node whose gen
// differs from the graph's current gen is shared with a Snapshot or
// Clone and is forked before mutation. A fork always copies small, so a
// sealed node's backing array is never written through.
type node[V any] struct {
	gen   uint64
	small []entry[V]
	m     map[Term]V
	// n counts the triples under a midMap: the O(1) cardinality of the
	// pattern that binds only its root key. Leaves leave it zero (the
	// field fits in their allocation's size class for free).
	n int
}

// entry is one key of a small node. The value comes first so that a
// zero-size value (a leafSet's) adds no trailing padding.
type entry[V any] struct {
	val V
	key Term
}

// leafSet is the innermost term set of a rotation (e.g. the objects under
// a subject and predicate); midMap is the middle level (e.g. predicate →
// object set under a subject).
type (
	leafSet = node[struct{}]
	midMap  = node[*leafSet]
)

// The read methods accept a nil receiver (an absent node) so that lookups
// chain without intermediate checks: v.spo[s].get(p).has(o).

func (n *node[V]) len() int {
	if n == nil {
		return 0
	}
	if n.m != nil {
		return len(n.m)
	}
	return len(n.small)
}

// count returns the number of triples under a midMap.
func (n *node[V]) count() int {
	if n == nil {
		return 0
	}
	return n.n
}

func (n *node[V]) lookup(k Term) (V, bool) {
	var zero V
	if n == nil {
		return zero, false
	}
	if n.m != nil {
		v, ok := n.m[k]
		return v, ok
	}
	for i := range n.small {
		if n.small[i].key == k {
			return n.small[i].val, true
		}
	}
	return zero, false
}

// get returns k's value, or the zero value (a nil leaf) if k is absent.
func (n *node[V]) get(k Term) V {
	v, _ := n.lookup(k)
	return v
}

func (n *node[V]) has(k Term) bool {
	_, ok := n.lookup(k)
	return ok
}

// each calls fn for every entry until fn returns false, and reports
// whether the walk ran to completion.
func (n *node[V]) each(fn func(Term, V) bool) bool {
	if n == nil {
		return true
	}
	if n.m != nil {
		for k, v := range n.m {
			if !fn(k, v) {
				return false
			}
		}
		return true
	}
	for _, e := range n.small {
		if !fn(e.key, e.val) {
			return false
		}
	}
	return true
}

// put sets k's value in a node owned by the current generation and
// reports whether k was absent.
func (n *node[V]) put(k Term, v V) bool {
	if n.m != nil {
		size := len(n.m)
		n.m[k] = v
		return len(n.m) > size
	}
	for i := range n.small {
		if n.small[i].key == k {
			n.small[i].val = v
			return false
		}
	}
	if len(n.small) < smallNode {
		n.small = append(n.small, entry[V]{val: v, key: k})
		return true
	}
	n.m = make(map[Term]V, 2*smallNode)
	for _, e := range n.small {
		n.m[e.key] = e.val
	}
	n.m[k] = v
	n.small = nil
	return true
}

// del removes k from a node owned by the current generation.
func (n *node[V]) del(k Term) {
	if n.m != nil {
		delete(n.m, k)
		return
	}
	for i := range n.small {
		if n.small[i].key == k {
			last := len(n.small) - 1
			n.small[i] = n.small[last]
			n.small[last] = entry[V]{}
			n.small = n.small[:last]
			return
		}
	}
}

// fork returns a private copy of the node for generation gen, in slice
// form whenever it fits, with room for the write that caused the fork.
// A midMap's leaves stay shared: each carries its own older stamp and
// forks when written.
func (n *node[V]) fork(gen uint64) *node[V] {
	out := &node[V]{gen: gen, n: n.n}
	if size := n.len(); size > smallNode {
		out.m = maps.Clone(n.m)
	} else {
		out.small = make([]entry[V], 0, min(size+1, smallNode))
		n.each(func(k Term, v V) bool {
			out.small = append(out.small, entry[V]{val: v, key: k})
			return true
		})
	}
	return out
}

// addIdx inserts (a, b, c) into one index rotation, forking every node on
// the path that an older generation owns. It reports whether the triple
// was absent; a duplicate forks nothing.
func addIdx(root map[Term]*midMap, gen uint64, a, b, c Term) bool {
	mid := root[a]
	switch {
	case mid == nil:
		mid = &midMap{gen: gen}
		root[a] = mid
	case mid.gen != gen:
		if mid.get(b).has(c) {
			return false
		}
		mid = mid.fork(gen)
		root[a] = mid
	}
	leaf := mid.get(b)
	switch {
	case leaf == nil:
		leaf = &leafSet{gen: gen}
		mid.put(b, leaf)
	case leaf.gen != gen:
		if leaf.has(c) {
			return false
		}
		leaf = leaf.fork(gen)
		mid.put(b, leaf)
	}
	if !leaf.put(c, struct{}{}) {
		return false
	}
	mid.n++
	return true
}

// delIdx removes (a, b, c) from one index rotation, reporting whether it
// was present. Nodes that the removal empties are dropped, not forked.
func delIdx(root map[Term]*midMap, gen uint64, a, b, c Term) bool {
	mid := root[a]
	leaf := mid.get(b)
	if !leaf.has(c) {
		return false
	}
	if mid.n == 1 {
		delete(root, a)
		return true
	}
	if mid.gen != gen {
		mid = mid.fork(gen)
		root[a] = mid
	}
	mid.n--
	if leaf.len() == 1 {
		mid.del(b)
		return true
	}
	if leaf.gen != gen {
		leaf = leaf.fork(gen)
		mid.put(b, leaf)
	}
	leaf.del(c)
	return true
}
