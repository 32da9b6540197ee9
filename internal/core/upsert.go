package core

// This file implements the paper's §7 ("Future work") extension: an
// insert with replace semantics that returns no value. Its elimination
// records carry the kind of operation that published them, and the
// compatibility matrix deciding which operations may eliminate against
// which records lives in internal/abalg (CanEliminate).

import "repro/internal/abalg"

// RecKind identifies the operation that published an ElimRecord.
type RecKind = abalg.RecKind

const (
	// RecInsert: a simple insert added the key.
	RecInsert = abalg.RecInsert
	// RecDelete: a successful delete removed the key.
	RecDelete = abalg.RecDelete
	// RecReplace: an upsert overwrote the value of a present key.
	RecReplace = abalg.RecReplace
)

// Upsert sets key's value to val, inserting the key if absent. It
// returns nothing: the §7 analysis shows that exactly this signature
// composes with publishing elimination (an upsert that would have to
// report the replaced value would need record chaining).
func (th *Thread) Upsert(key, val uint64) {
	checkKey(key)
	t := th.t
	for {
		path := t.search(key, nil)
		leaf := path.Node.leaf()

		if t.elim {
			acquired, _ := th.lockOrElimKind(leaf, key, abalg.ElimUpsert)
			if !acquired {
				// Eliminated: linearized immediately before the publisher;
				// our value is overwritten without ever being observed.
				t.elimUpserts.Add(1)
				return
			}
		} else {
			th.lockNode(&leaf.node)
		}

		if leaf.marked() {
			th.unlockAll()
			continue
		}

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

		switch {
		case dup >= 0:
			// Replace in place.
			v := leaf.ver.Add(1)
			t.rqStamp(leaf)
			if t.elim {
				leaf.rec.Store(&ElimRecord{Key: key, Val: val, Ver: v, Kind: RecReplace})
			}
			leaf.vals[dup].Store(val)
			leaf.ver.Add(1)
			th.unlockAll()
			return
		case emptyIdx >= 0:
			// Insert into an empty slot (publishes an insert record: the
			// key was absent before this operation).
			v := leaf.ver.Add(1)
			t.rqStamp(leaf)
			if t.elim {
				leaf.rec.Store(&ElimRecord{Key: key, Val: val, Ver: v, Kind: RecInsert})
			}
			leaf.vals[emptyIdx].Store(val)
			leaf.keys[emptyIdx].Store(key)
			leaf.addSize(1)
			leaf.ver.Add(1)
			th.unlockAll()
			return
		default:
			// Full leaf: splitting insert (never published/eliminated,
			// like the paper's splitting inserts).
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
			return
		}
	}
}

// lockOrElimKind generalizes lockOrElim with the op/record compatibility
// matrix. The paper's original operations use the original pairs.
func (th *Thread) lockOrElimKind(leaf *leafNode, key uint64, op abalg.ElimOp) (acquired bool, val uint64) {
	startVer := leaf.ver.Load()
	spins := 0
	for {
		var rec *ElimRecord
		for {
			v1 := leaf.ver.Load()
			rec = leaf.rec.Load()
			v2 := leaf.ver.Load()
			if v1&1 == 0 && v1 == v2 {
				break
			}
			spinPause(&spins)
		}
		if rec != nil && startVer <= rec.Ver && rec.Key == key && abalg.CanEliminate(op, rec.Kind) {
			return false, rec.Val
		}
		if th.tryLockNode(&leaf.node) {
			return true, 0
		}
		spinPause(&spins)
	}
}
