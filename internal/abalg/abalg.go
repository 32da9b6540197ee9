// Package abalg holds the relaxed (a,b)-tree algorithm of the paper's
// OCC-ABtree and Elim-ABtree (§3–4) once, for both node stores: the
// volatile trees of internal/core (nodes are Go heap objects, addressed
// by pointer) and the durable trees of internal/pabtree (nodes live in a
// simulated persistent-memory arena, addressed by offset). The paper's
// durable trees (§5) are the same algorithm with persistence added —
// flush new nodes before linking them, publish with link-and-persist,
// recycle slots through epochs — and those additions all sit behind the
// Store adapter, so the algorithm here is written without them:
//
//   - rebalancing: FixTagged (paper Figure 7) and FixUnderfull
//     (Figure 9) with their distribute and merge steps;
//   - the quiescent walkers: Validate, Height, Scan and Shape;
//   - the batched point-operation driver (RunBatch): partition descent,
//     per-leaf runs and the churn path;
//   - the §7 elimination compatibility matrix (CanEliminate).
//
// The per-key hot paths — search, leaf search, Find/Insert/Delete, the
// splitting insert, publishing elimination, range scans — stay in each
// tree package. Functions generic over a type parameter call its methods
// indirectly (through the instantiation's dictionary), which costs a
// per-key descent more than it costs a rebalance or a batch.
//
// Search keys. Every node records an immutable searchKey that
// FixTagged/FixUnderfull use to re-locate it: the unique search path for
// searchKey passes through every reachable node whose key range contains
// it (paper Def. 3.3/3.4). Both stores use one convention: a node's
// searchKey is the lower bound of its key range — the routing key just
// left of it on its search path, or, on the leftmost path, 0 or 1 (the
// smallest key). A node's range is fixed for its lifetime, so the key
// stays valid. Validate checks that every reachable node's searchKey
// routes to it.
package abalg

import "repro/internal/batchkit"

// Kind is a node's kind.
type Kind uint8

const (
	// Leaf holds up to b key-value pairs; empty slots hold key 0.
	Leaf Kind = iota
	// Internal holds nchildren child pointers and nchildren-1 immutable
	// routing keys.
	Internal
	// Tagged marks a TaggedInternal node: a temporary height imbalance
	// created by a splitting insert (or by FixTagged's split case),
	// always with exactly two children, removed by FixTagged.
	Tagged
)

// KV is a key-value pair staged during node construction.
type KV struct{ K, V uint64 }

// Path is the result of a search (paper Figure 1): the node reached, its
// parent and grandparent, and the child indices along the way.
type Path[N comparable] struct {
	Grand     N   // zero if Parent is the entry or Node is the root
	Parent    N   // the entry if Node is the root
	ParentIdx int // index of Parent among Grand's children
	Node      N   // the leaf reached, or the search target if met first
	NodeIdx   int // index of Node among Parent's children
}

// Store is the node store one tree implementation supplies: node
// addressing, creation, publication and synchronisation. N is its node
// handle; the zero N means "no node". A Store value is bound to one
// operation handle (its held locks and epoch); the quiescent walkers
// use only the reads.
type Store[N comparable] interface {
	// Degree returns the tree's (a, b) node-size bounds.
	Degree() (a, b int)
	// Entry returns the sentinel: an internal node whose only child is
	// the root. It is never replaced.
	Entry() N

	Kind(n N) Kind
	// NChildren returns an internal node's child count.
	NChildren(n N) int
	// Key returns routing key i of an internal node, or the key in slot
	// i of a leaf (0: empty).
	Key(n N, i int) uint64
	// Val returns the value in slot i of a leaf.
	Val(n N, i int) uint64
	// Child returns child i of an internal node, once it is safe to
	// follow (durable stores wait out an unpersisted link).
	Child(n N, i int) N
	Marked(n N) bool
	// Size returns a leaf's key count.
	Size(leaf N) int
	SearchKey(n N) uint64
	// HasRecord reports whether a leaf holds a published elimination
	// record.
	HasRecord(leaf N) bool
	// Search descends toward key without locks, stopping at a leaf or at
	// target, whichever comes first.
	Search(key uint64, target N) Path[N]
	// Route returns the index c >= from of the child of internal node n
	// whose key range holds key (which must not lie left of child from),
	// the child, and its upper bound (hasHi false for the last child).
	Route(n N, key uint64, from int) (c int, child N, hi uint64, hasHi bool)

	// NewLeaf and NewInternal return a complete new node, not yet
	// reachable (a durable store has flushed it). searchKey is the
	// node's key-range lower bound.
	NewLeaf(items []KV, searchKey uint64) N
	NewInternal(k Kind, keys []uint64, children []N, searchKey uint64) N
	// Publish makes child the i-th child of the locked node parent
	// (durable stores: link-and-persist).
	Publish(parent N, i int, child N)
	// Mark flags a locked node as unlinked; Retire hands it to the
	// store's reclamation once nothing can reach it.
	Mark(n N)
	Retire(n N)
	// BumpVersion increments a locked leaf's version, opening or closing
	// the version window around its replacement.
	BumpVersion(leaf N)
	// InheritDistribute and InheritMerge hand the replaced leaves'
	// range-query histories to their replacements. They run inside the
	// old leaves' open version windows, before the replacements are
	// published, and read the scan timestamp there.
	InheritDistribute(oldLeft, oldRight, newLeft, newRight N, newSep uint64)
	InheritMerge(oldLeft, oldRight, merged N)

	// Lock acquires n's lock for this handle; locks are taken
	// bottom-to-top, ties left-to-right (paper §3.3.5). UnlockAll
	// releases every lock the handle holds.
	Lock(n N)
	UnlockAll()
	// Backoff cedes the processor in a loop waiting for another
	// thread's structural fix (durable stores also observe a simulated
	// crash here).
	Backoff()

	// Batched point operations (batch.go).
	//
	// CollectFinds answers every key of run from one validated double
	// collect of leaf into vals/found (by Ent.Idx); false if the leaf
	// was unlinked.
	CollectFinds(leaf N, run []batchkit.Ent, vals []uint64, found []bool) bool
	// LeafInsert and LeafDelete are the locked phases of a simple insert
	// and a delete, each in its own version window, on an unmarked leaf
	// this handle has locked. done is false when the leaf is full.
	LeafInsert(leaf N, key, val uint64) (done bool, old uint64, inserted bool)
	LeafDelete(leaf N, key uint64) (old uint64, found bool)
	// SearchScan descends to key's leaf through the handle's cached scan
	// path and reports the leaf's key-range upper bound (hasBound false
	// for the rightmost leaf); InvalidatePath empties that cache.
	SearchScan(key uint64) (leaf N, bound uint64, hasBound bool)
	InvalidatePath()
	// Insert is the per-key insert, including the splitting insert.
	Insert(key, val uint64) (old uint64, inserted bool)
}

// GatherLeaf appends a locked or quiescent leaf's pairs to items, in
// slot order.
func GatherLeaf[N comparable, S Store[N]](s S, leaf N, items []KV) []KV {
	_, b := s.Degree()
	for i := 0; i < b; i++ {
		if k := s.Key(leaf, i); k != 0 {
			items = append(items, KV{k, s.Val(leaf, i)})
		}
	}
	return items
}

// SortKVs sorts items by key (insertion sort: at most 2b elements,
// called with leaf locks held, so avoiding sort.Slice's allocation and
// indirection is worthwhile).
func SortKVs(items []KV) {
	for i := 1; i < len(items); i++ {
		it := items[i]
		j := i - 1
		for j >= 0 && items[j].K > it.K {
			items[j+1] = items[j]
			j--
		}
		items[j+1] = it
	}
}

// sizeOf returns a node's occupancy in the (a,b) sense: key count for a
// leaf, child count for an internal node.
func sizeOf[N comparable, S Store[N]](s S, n N) int {
	if s.Kind(n) == Leaf {
		return s.Size(n)
	}
	return s.NChildren(n)
}
