package core

import (
	"repro/internal/abalg"
	"repro/internal/batchkit"
)

// store adapts the tree's heap nodes to abalg.Store, the node store the
// shared rebalancing, validation and batch driver run on. th is the
// operation handle whose locks and scan path the algorithm uses; it is
// nil for the quiescent walkers (walker), which only read.
type store struct {
	t  *Tree
	th *Thread
}

// store returns the adapter bound to th.
func (th *Thread) store() store { return store{th.t, th} }

// walker returns a read-only adapter for the quiescent walkers.
func (t *Tree) walker() store { return store{t: t} }

func (s store) Degree() (a, b int) { return s.t.a, s.t.b }
func (s store) Entry() *node       { return s.t.entry }

func (store) Kind(n *node) abalg.Kind         { return n.kind }
func (store) NChildren(n *node) int           { return int(n.nchildren) }
func (store) Key(n *node, i int) uint64       { return n.keys[i].Load() }
func (store) Val(n *node, i int) uint64       { return n.leaf().vals[i].Load() }
func (store) Child(n *node, i int) *node      { return n.inner().ptrs[i].Load() }
func (store) Marked(n *node) bool             { return n.marked() }
func (store) Size(n *node) int                { return int(n.leaf().size()) }
func (store) SearchKey(n *node) uint64        { return n.searchKey }
func (store) HasRecord(n *node) bool          { return n.leaf().rec.Load() != nil }
func (store) Mark(n *node)                    { n.mark() }
func (store) BumpVersion(n *node)             { n.leaf().ver.Add(1) }
func (store) Publish(p *node, i int, c *node) { p.inner().ptrs[i].Store(c) }

// Retire does nothing: the garbage collector reclaims unlinked nodes.
func (store) Retire(*node) {}

func (s store) Search(key uint64, target *node) abalg.Path[*node] {
	return s.t.search(key, target)
}

func (store) Route(n *node, key uint64, from int) (int, *node, uint64, bool) {
	rk := n.routingKeys()
	for c := from; c < rk; c++ {
		if k := n.keys[c].Load(); key < k {
			return c, n.inner().ptrs[c].Load(), k, true
		}
	}
	return rk, n.inner().ptrs[rk].Load(), 0, false
}

func (store) NewLeaf(items []abalg.KV, searchKey uint64) *node {
	return &newLeaf(items, searchKey).node
}

func (store) NewInternal(k abalg.Kind, keys []uint64, children []*node, searchKey uint64) *node {
	return newInternal(k, keys, children, searchKey)
}

func (s store) InheritDistribute(oldLeft, oldRight, newLeft, newRight *node, newSep uint64) {
	s.t.rqInheritDistribute(oldLeft.leaf(), oldRight.leaf(), newLeft.leaf(), newRight.leaf(), newSep, s.t.rqp.ReadStamp())
}

func (s store) InheritMerge(oldLeft, oldRight, merged *node) {
	s.t.rqInheritMerge(oldLeft.leaf(), oldRight.leaf(), merged.leaf(), s.t.rqp.ReadStamp())
}

func (s store) Lock(n *node) { s.th.lockNode(n) }
func (s store) UnlockAll()   { s.th.unlockAll() }
func (store) Backoff()       { yield_() }

func (s store) CollectFinds(leaf *node, run []batchkit.Ent, vals []uint64, found []bool) bool {
	return s.t.collectBatchFinds(leaf.leaf(), run, vals, found)
}

func (s store) LeafInsert(leaf *node, key, val uint64) (done bool, old uint64, inserted bool) {
	if s.t.sorted {
		old, inserted, done = s.t.insertSorted(leaf.leaf(), key, val)
		return done, old, inserted
	}
	return s.t.insertUnsorted(leaf.leaf(), key, val)
}

func (s store) LeafDelete(leaf *node, key uint64) (old uint64, found bool) {
	if s.t.sorted {
		return s.t.deleteSorted(leaf.leaf(), key)
	}
	old, found, _ = s.t.deleteUnsorted(leaf.leaf(), key)
	return old, found
}

func (s store) SearchScan(key uint64) (*node, uint64, bool) {
	leaf, bound, hasBound := s.th.searchScan(key)
	return &leaf.node, bound, hasBound
}

func (s store) InvalidatePath()                       { s.th.path.invalidate() }
func (s store) Insert(key, val uint64) (uint64, bool) { return s.th.Insert(key, val) }
