package pabtree

import "repro/internal/abalg"

// search descends from the entry toward key, stopping at a leaf or at
// target, lock-free. It only follows persisted (unmarked) pointers.
func (t *Tree) search(key uint64, target uint64) abalg.Path[uint64] {
	var gp, p uint64
	pIdx := 0
	n := t.entryOff
	nIdx := 0
	for {
		meta := t.meta(n)
		if kindOf(meta) == leafKind || n == target {
			break
		}
		gp, p, pIdx = p, n, nIdx
		nIdx = 0
		rk := nchildrenOf(meta) - 1
		for nIdx < rk && key >= t.loadKeyWord(n, nIdx) {
			nIdx++
		}
		n = t.loadChild(p, nIdx)
	}
	return abalg.Path[uint64]{Grand: gp, Parent: p, ParentIdx: pIdx, Node: n, NodeIdx: nIdx}
}

// leafSearch double-collects a consistent answer for key in the leaf.
func (t *Tree) leafSearch(off uint64, key uint64) (uint64, bool) {
	v := t.vn(off)
	spins := 0
	for {
		v1 := v.ver.Load()
		if v1&1 == 1 {
			t.crashCheck()
			spinPause(&spins)
			continue
		}
		var val uint64
		found := false
		for i := 0; i < t.b; i++ {
			if t.loadKeyWord(off, i) == key {
				val = t.loadVal(off, i)
				found = true
				break
			}
		}
		if v.ver.Load() == v1 {
			return val, found
		}
		t.crashCheck()
		spinPause(&spins)
	}
}

// leafScanOnce is the Elim variant's single optimistic scan.
func (t *Tree) leafScanOnce(off uint64, key uint64) (val uint64, found, consistent bool) {
	v := t.vn(off)
	v1 := v.ver.Load()
	if v1&1 == 1 {
		return 0, false, false
	}
	for i := 0; i < t.b; i++ {
		if t.loadKeyWord(off, i) == key {
			val = t.loadVal(off, i)
			found = true
			break
		}
	}
	return val, found, v.ver.Load() == v1
}

// Find returns the value associated with key, if present.
func (th *Thread) Find(key uint64) (uint64, bool) {
	checkKey(key)
	th.enter()
	defer th.exit()
	t := th.t
	path := t.search(key, 0)
	return t.leafSearch(path.Node, key)
}

// Insert inserts <key, val> if absent, returning (0, true); if key is
// present it returns the existing value and false.
func (th *Thread) Insert(key, val uint64) (uint64, bool) {
	checkKey(key)
	th.enter()
	defer th.exit()
	t := th.t
	for {
		path := t.search(key, 0)
		leaf := path.Node
		lv := t.vn(leaf)

		if t.elim {
			v, found, consistent := t.leafScanOnce(leaf, key)
			if consistent && found {
				return v, false
			}
			acquired, ev := th.lockOrElimKind(leaf, key, abalg.ElimInsert)
			if !acquired {
				t.elimInserts.Add(1)
				return ev, false
			}
		} else {
			if v, found := t.leafSearch(leaf, key); found {
				return v, false
			}
			th.lockNode(leaf)
		}

		if lv.marked.Load() {
			th.unlockAll()
			continue
		}

		if done, old, inserted := t.leafInsertLocked(leaf, key, val); done {
			th.unlockAll()
			return old, inserted
		}

		// Splitting insert.
		parent := path.Parent
		th.lockNode(parent)
		if t.vn(parent).marked.Load() {
			th.unlockAll()
			continue
		}
		taggedOff := t.splitInsert(th, leaf, parent, path.NodeIdx, key, val)
		th.unlockAll()
		if taggedOff != 0 {
			abalg.FixTagged(th.store(), taggedOff)
		}
		return 0, true
	}
}

// leafInsertLocked performs the locked phase of a simple insert: verify
// key is absent, find an empty slot, and write the pair with the
// persistent flush discipline (§5): flush the value, then the key — the
// insert is durable once the key line reaches PM; a crash in between
// leaves the slot logically empty (key still ⊥). done is false when the
// leaf is full (splitting insert required). The caller holds the leaf's
// lock and has verified it is unmarked.
func (t *Tree) leafInsertLocked(leaf uint64, key, val uint64) (done bool, old uint64, inserted bool) {
	lv := t.vn(leaf)
	emptyIdx := -1
	dup := -1
	for i := 0; i < t.b; i++ {
		switch k := t.loadKeyWord(leaf, i); {
		case k == key:
			dup = i
		case k == emptyKey && emptyIdx < 0:
			emptyIdx = i
		}
		if dup >= 0 {
			break
		}
	}
	if dup >= 0 {
		return true, t.loadVal(leaf, dup), false
	}
	if emptyIdx < 0 {
		return false, 0, false // full: splitting insert
	}
	ver := lv.ver.Add(1)
	t.rqStamp(leaf)
	if t.elim {
		lv.rec.Store(&elimRecord{key: key, val: val, ver: ver, kind: abalg.RecInsert})
	}
	valOff := leaf + valsBase + uint64(emptyIdx)
	keyOff := leaf + keysBase + uint64(emptyIdx)
	t.arena.Store(valOff, val)
	t.arena.Flush(valOff)
	t.arena.Store(keyOff, key)
	t.arena.Flush(keyOff)
	lv.size.Add(1)
	lv.ver.Add(1)
	return true, 0, true
}

// leafDeleteLocked performs the locked phase of a delete: clear the
// key's slot (durable once the ⊥ key reaches PM) and publish the
// elimination record inside one version window. The caller holds the
// leaf's lock and has verified it is unmarked; it is responsible for
// fixUnderfull when newSize < a.
func (t *Tree) leafDeleteLocked(leaf uint64, key uint64) (val uint64, found bool, newSize int64) {
	lv := t.vn(leaf)
	idx := -1
	for i := 0; i < t.b; i++ {
		if t.loadKeyWord(leaf, i) == key {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, false, lv.size.Load()
	}
	val = t.loadVal(leaf, idx)
	ver := lv.ver.Add(1)
	t.rqStamp(leaf)
	if t.elim {
		lv.rec.Store(&elimRecord{key: key, val: val, ver: ver, kind: abalg.RecDelete})
	}
	keyOff := leaf + keysBase + uint64(idx)
	t.arena.Store(keyOff, emptyKey)
	t.arena.Flush(keyOff)
	newSize = lv.size.Add(-1)
	lv.ver.Add(1)
	return val, true, newSize
}

// splitInsert replaces the full leaf with a (usually tagged) two-leaf
// subtree containing the leaf's pairs plus <key, val>. The new nodes are
// flushed before the parent pointer is published (link-and-persist), so
// the insert becomes durable exactly when the pointer line is flushed.
func (t *Tree) splitInsert(th *Thread, leaf, parent uint64, nIdx int, key, val uint64) uint64 {
	items := abalg.GatherLeaf(th.store(), leaf, make([]abalg.KV, 0, t.b+1))
	items = append(items, abalg.KV{K: key, V: val})
	abalg.SortKVs(items)

	mid := len(items) / 2
	sep := items[mid].K

	// Open the leaf's version window around the replacement so snapshot
	// scans can arbitrate against the stamp read inside it (rqsnap.go).
	lv := t.vn(leaf)
	lv.ver.Add(1)
	c := t.rqp.ReadStamp()
	leftOff := t.allocSlot()
	rightOff := t.allocSlot()
	topOff := t.allocSlot()
	t.initLeaf(leftOff, items[:mid], lv.searchKey)
	t.initLeaf(rightOff, items[mid:], sep)
	t.rqInheritSplit(leaf, leftOff, rightOff, sep, c)

	k := taggedKind
	if parent == t.entryOff {
		k = internalKind
	}
	t.initInternalNode(topOff, k, []uint64{sep}, []uint64{leftOff, rightOff}, lv.searchKey)

	t.setChildPersist(parent, nIdx, topOff)
	lv.marked.Store(true)
	lv.ver.Add(1)
	th.retire(leaf)
	if k == taggedKind {
		return topOff
	}
	return 0
}

// Delete removes key if present, returning its value and true. The delete
// is durable once the ⊥ key reaches PM.
func (th *Thread) Delete(key uint64) (uint64, bool) {
	checkKey(key)
	th.enter()
	defer th.exit()
	t := th.t
	for {
		path := t.search(key, 0)
		leaf := path.Node
		lv := t.vn(leaf)

		if t.elim {
			_, found, consistent := t.leafScanOnce(leaf, key)
			if consistent && !found {
				return 0, false
			}
			acquired, _ := th.lockOrElimKind(leaf, key, abalg.ElimDelete)
			if !acquired {
				t.elimDeletes.Add(1)
				return 0, false // eliminated deletes return ⊥
			}
		} else {
			if _, found := t.leafSearch(leaf, key); !found {
				return 0, false
			}
			th.lockNode(leaf)
		}

		if lv.marked.Load() {
			th.unlockAll()
			continue
		}

		val, found, newSize := t.leafDeleteLocked(leaf, key)
		th.unlockAll()
		if !found {
			return 0, false
		}
		if int(newSize) < t.a {
			abalg.FixUnderfull(th.store(), leaf)
		}
		return val, true
	}
}

func checkKey(key uint64) {
	if key == emptyKey {
		panic("pabtree: key 0 is reserved as the empty sentinel")
	}
	if key == ^uint64(0) {
		panic("pabtree: key 2^64-1 is reserved as the key-range upper bound")
	}
}
