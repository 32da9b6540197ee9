package pabtree

import (
	"runtime"

	"repro/internal/abalg"
	"repro/internal/batchkit"
)

// store adapts the tree's arena nodes to abalg.Store, the node store
// the shared rebalancing, validation and batch driver run on. Nodes are
// arena offsets. New nodes are flushed before they are returned and
// published with link-and-persist; replaced nodes retire through the
// handle's epoch. th is the operation handle whose locks, epoch and
// scan path the algorithm uses; it is nil for the quiescent walkers
// (walker), which only read.
type store struct {
	t  *Tree
	th *Thread
}

// store returns the adapter bound to th.
func (th *Thread) store() store { return store{th.t, th} }

// walker returns a read-only adapter for the quiescent walkers.
func (t *Tree) walker() store { return store{t: t} }

func (s store) Degree() (a, b int) { return s.t.a, s.t.b }
func (s store) Entry() uint64      { return s.t.entryOff }

func (s store) Kind(n uint64) abalg.Kind          { return kindOf(s.t.meta(n)) }
func (s store) NChildren(n uint64) int            { return nchildrenOf(s.t.meta(n)) }
func (s store) Key(n uint64, i int) uint64        { return s.t.loadKeyWord(n, i) }
func (s store) Val(n uint64, i int) uint64        { return s.t.loadVal(n, i) }
func (s store) Child(n uint64, i int) uint64      { return s.t.loadChild(n, i) }
func (s store) Marked(n uint64) bool              { return s.t.vn(n).marked.Load() }
func (s store) Size(n uint64) int                 { return int(s.t.vn(n).size.Load()) }
func (s store) SearchKey(n uint64) uint64         { return s.t.vn(n).searchKey }
func (s store) HasRecord(n uint64) bool           { return s.t.vn(n).rec.Load() != nil }
func (s store) Mark(n uint64)                     { s.t.vn(n).marked.Store(true) }
func (s store) BumpVersion(n uint64)              { s.t.vn(n).ver.Add(1) }
func (s store) Publish(p uint64, i int, c uint64) { s.t.setChildPersist(p, i, c) }
func (s store) Retire(n uint64)                   { s.th.retire(n) }

func (s store) Search(key uint64, target uint64) abalg.Path[uint64] {
	return s.t.search(key, target)
}

func (s store) Route(n uint64, key uint64, from int) (int, uint64, uint64, bool) {
	rk := nchildrenOf(s.t.meta(n)) - 1
	for c := from; c < rk; c++ {
		if k := s.t.loadKeyWord(n, c); key < k {
			return c, s.t.loadChild(n, c), k, true
		}
	}
	return rk, s.t.loadChild(n, rk), 0, false
}

func (s store) NewLeaf(items []abalg.KV, searchKey uint64) uint64 {
	off := s.t.allocSlot()
	s.t.initLeaf(off, items, searchKey)
	return off
}

func (s store) NewInternal(k abalg.Kind, keys []uint64, children []uint64, searchKey uint64) uint64 {
	off := s.t.allocSlot()
	s.t.initInternalNode(off, k, keys, children, searchKey)
	return off
}

func (s store) InheritDistribute(oldLeft, oldRight, newLeft, newRight uint64, newSep uint64) {
	s.t.rqInheritDistribute(oldLeft, oldRight, newLeft, newRight, newSep, s.t.rqp.ReadStamp())
}

func (s store) InheritMerge(oldLeft, oldRight, merged uint64) {
	s.t.rqInheritMerge(oldLeft, oldRight, merged, s.t.rqp.ReadStamp())
}

func (s store) Lock(n uint64) { s.th.lockNode(n) }
func (s store) UnlockAll()    { s.th.unlockAll() }

// Backoff yields, first observing a simulated crash: a waiter behind a
// crashed thread's half-done fix would otherwise wait forever.
func (s store) Backoff() {
	s.t.crashCheck()
	runtime.Gosched()
}

func (s store) CollectFinds(leaf uint64, run []batchkit.Ent, vals []uint64, found []bool) bool {
	return s.t.collectBatchFinds(leaf, run, vals, found)
}

func (s store) LeafInsert(leaf uint64, key, val uint64) (done bool, old uint64, inserted bool) {
	return s.t.leafInsertLocked(leaf, key, val)
}

func (s store) LeafDelete(leaf uint64, key uint64) (old uint64, found bool) {
	old, found, _ = s.t.leafDeleteLocked(leaf, key)
	return old, found
}

func (s store) SearchScan(key uint64) (uint64, uint64, bool) { return s.th.searchScan(key) }
func (s store) InvalidatePath()                              { s.th.path.invalidate() }
func (s store) Insert(key, val uint64) (uint64, bool)        { return s.th.Insert(key, val) }
