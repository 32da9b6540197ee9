package core

import "repro/internal/abalg"

// Find returns the value associated with key, if present (paper §3.2).
// Finds take no locks and never restart from the root.
func (th *Thread) Find(key uint64) (uint64, bool) {
	checkKey(key)
	t := th.t
	if t.lockedFind {
		return th.findLocked(key)
	}
	if t.elimFinds {
		return th.findElim(key)
	}
	leaf := t.search(key, nil).Node.leaf()
	if t.sorted {
		return t.leafSearchSorted(leaf, key)
	}
	return t.leafSearch(leaf, key)
}

// Insert inserts <key, val> if key is absent and returns (0, true).
// If key is present, the tree is unchanged and Insert returns the existing
// value and false (the paper's insert semantics, §3).
func (th *Thread) Insert(key, val uint64) (uint64, bool) {
	checkKey(key)
	t := th.t
	for {
		path := t.search(key, nil)
		leaf := path.Node.leaf()

		// Pre-lock read phase. The OCC-ABtree retries leafSearch until it
		// has a consistent snapshot; the Elim-ABtree scans once and, on
		// interference, goes straight to lockOrElim (§4.1).
		if t.combining {
			if v, found := t.leafSearch(leaf, key); found {
				return v, false
			}
			rv, rok, status := th.combineUpdate(leaf, key, val, true)
			switch status {
			case fcDone:
				return rv, rok
			case fcLeafMarked:
				continue
			}
			// fcLeafFull: fall through to the classic locked path, which
			// retries the simple insert under the lock and splits if the
			// leaf is still full.
			th.lockNode(&leaf.node)
		} else if t.elim {
			v, found, consistent := t.leafScanOnce(leaf, key)
			if consistent && found {
				return v, false
			}
			acquired, ev := th.lockOrElimKind(leaf, key, abalg.ElimInsert)
			if !acquired {
				// Eliminated: linearized immediately after the record's
				// operation; key is (momentarily) present with rec.Val.
				t.elimInserts.Add(1)
				return ev, false
			}
		} else {
			var v uint64
			var found bool
			if t.sorted {
				v, found = t.leafSearchSorted(leaf, key)
			} else {
				v, found = t.leafSearch(leaf, key)
			}
			if found {
				return v, false
			}
			th.lockNode(&leaf.node)
		}

		if leaf.marked() {
			th.unlockAll()
			continue
		}

		if t.sorted {
			old, inserted, handled := t.insertSorted(leaf, key, val)
			if handled {
				th.unlockAll()
				return old, inserted
			}
			// Full leaf: fall through to the shared splitting insert.
		} else if done, old, inserted := t.insertUnsorted(leaf, key, val); done {
			th.unlockAll()
			return old, inserted
		}

		// Splitting insert: no empty slot; replace the leaf with a tagged
		// node over two half leaves (linearizes at the parent's pointer
		// write). Lock the parent too (bottom-to-top order).
		parent := path.Parent
		th.lockNode(parent)
		if parent.marked() {
			th.unlockAll()
			continue
		}
		taggedNode := t.splitInsert(leaf, parent, path.NodeIdx, key, val)
		th.unlockAll()
		if taggedNode != nil {
			abalg.FixTagged(th.store(), taggedNode)
		}
		return 0, true
	}
}

// insertUnsorted performs the locked phase of a simple insert into an
// unsorted leaf. done is false when the leaf is full (splitting insert
// required).
func (t *Tree) insertUnsorted(leaf *leafNode, key, val uint64) (done bool, old uint64, inserted bool) {
	// Verify key is not present and find an empty slot, under the lock.
	emptyIdx := -1
	dup := -1
	for i := 0; i < t.b; i++ {
		switch k := leaf.keys[i].Load(); {
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
		return true, leaf.vals[dup].Load(), false
	}
	if emptyIdx < 0 {
		return false, 0, false // full: splitting insert
	}
	// Simple insert: linearizes at the second version increment.
	v := leaf.ver.Add(1) // now odd: modification in progress
	t.rqStamp(leaf)
	if t.elim {
		leaf.rec.Store(&ElimRecord{Key: key, Val: val, Ver: v, Kind: RecInsert})
	}
	leaf.vals[emptyIdx].Store(val)
	leaf.keys[emptyIdx].Store(key)
	leaf.addSize(1)
	leaf.ver.Add(1)
	return true, 0, true
}

// splitInsert performs the splitting-insert update with leaf and parent
// locked and unmarked. It returns the created tagged node (nil if the new
// subtree root is an untagged internal, i.e. the new tree root).
func (t *Tree) splitInsert(leaf *leafNode, parent *node, nIdx int, key, val uint64) *node {
	items := make([]abalg.KV, 0, t.b+1)
	for i := 0; i < t.b; i++ {
		if k := leaf.keys[i].Load(); k != emptyKey {
			items = append(items, abalg.KV{K: k, V: leaf.vals[i].Load()})
		}
	}
	items = append(items, abalg.KV{K: key, V: val})
	abalg.SortKVs(items)

	mid := len(items) / 2
	sep := items[mid].K

	// Open the leaf's version window around the replacement: the scan
	// timestamp must be read where a snapshot scan's double collect can
	// arbitrate against it (rqsnap.go). The leaf's contents stay intact;
	// only its reachability changes.
	leaf.ver.Add(1)
	c := t.rqp.ReadStamp()
	left := newLeaf(items[:mid], leaf.searchKey)
	right := newLeaf(items[mid:], sep)
	t.rqInheritSplit(leaf, left, right, sep, c)

	// The new two-child node is tagged — a temporary height imbalance to
	// be merged upward by fixTagged — unless the split leaf was the root,
	// in which case the new node simply becomes the (untagged) new root.
	k := taggedKind
	if parent == t.entry {
		k = internalKind
	}
	nn := newInternal(k, []uint64{sep}, []*node{&left.node, &right.node}, leaf.searchKey)

	parent.inner().ptrs[nIdx].Store(nn)
	leaf.mark()
	leaf.ver.Add(1)
	if k == taggedKind {
		return nn
	}
	return nil
}

// Delete removes key if present, returning its value and true; otherwise
// it returns (0, false) and leaves the tree unchanged (paper §3.2).
func (th *Thread) Delete(key uint64) (uint64, bool) {
	checkKey(key)
	t := th.t
	for {
		path := t.search(key, nil)
		leaf := path.Node.leaf()

		if t.combining {
			if _, found := t.leafSearch(leaf, key); !found {
				return 0, false
			}
			rv, rok, status := th.combineUpdate(leaf, key, 0, false)
			if status == fcLeafMarked {
				continue
			}
			return rv, rok
		}

		if t.elim {
			_, found, consistent := t.leafScanOnce(leaf, key)
			if consistent && !found {
				return 0, false
			}
			acquired, _ := th.lockOrElimKind(leaf, key, abalg.ElimDelete)
			if !acquired {
				// Eliminated deletes always return ⊥ (§4.1): linearized
				// just before the record's insert, or just after the
				// record's delete — either way the key is absent.
				t.elimDeletes.Add(1)
				return 0, false
			}
		} else {
			var found bool
			if t.sorted {
				_, found = t.leafSearchSorted(leaf, key)
			} else {
				_, found = t.leafSearch(leaf, key)
			}
			if !found {
				return 0, false
			}
			th.lockNode(&leaf.node)
		}

		if leaf.marked() {
			th.unlockAll()
			continue
		}

		if t.sorted {
			val, handled := t.deleteSorted(leaf, key)
			newSize := leaf.size()
			th.unlockAll()
			if !handled {
				return 0, false
			}
			if int(newSize) < t.a {
				abalg.FixUnderfull(th.store(), &leaf.node)
			}
			return val, true
		}

		val, found, newSize := t.deleteUnsorted(leaf, key)
		th.unlockAll()
		if !found {
			// Removed by a concurrent delete between search and lock.
			return 0, false
		}
		if int(newSize) < t.a {
			abalg.FixUnderfull(th.store(), &leaf.node)
		}
		return val, true
	}
}

// deleteUnsorted performs the locked phase of a delete from an unsorted
// leaf: clear the key's slot and publish the elimination record inside
// one version window. The caller holds the leaf's lock.
func (t *Tree) deleteUnsorted(leaf *leafNode, key uint64) (val uint64, found bool, newSize int64) {
	idx := -1
	for i := 0; i < t.b; i++ {
		if leaf.keys[i].Load() == key {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, false, leaf.size()
	}
	val = leaf.vals[idx].Load()
	v := leaf.ver.Add(1) // odd: modification in progress
	t.rqStamp(leaf)
	if t.elim {
		leaf.rec.Store(&ElimRecord{Key: key, Val: val, Ver: v, Kind: RecDelete})
	}
	leaf.keys[idx].Store(emptyKey)
	newSize = leaf.addSize(-1)
	leaf.ver.Add(1)
	return val, true, newSize
}

func checkKey(key uint64) {
	if key == emptyKey {
		panic("core: key 0 is reserved as the empty sentinel")
	}
	if key == ^uint64(0) {
		panic("core: key 2^64-1 is reserved as the key-range upper bound")
	}
}
