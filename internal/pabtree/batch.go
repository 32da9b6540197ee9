package pabtree

// Batched point operations for the persistent trees, driven by
// internal/abalg's RunBatch (staging, partition descent, per-leaf runs,
// churn path; abalg's batch.go states the contract). Two persistence
// twists live here:
//
//   - node offsets are only meaningful inside an epoch critical
//     section, so each batched call brackets itself with enter/exit
//     (and resets the cached scan path the slow runner uses);
//   - every mutation goes through leafInsertLocked/leafDeleteLocked
//     (ops.go), so the batched path has exactly the per-key flush
//     discipline and durability points.

import (
	"repro/internal/abalg"
	"repro/internal/batchkit"
)

// batchEnt is one key of an in-flight batched operation (see
// batchkit.Ent).
type batchEnt = batchkit.Ent

// runBatch stages keys into the Thread's scratch, sorted, and applies
// op to them inside one epoch critical section. Per-key inserts the
// slow runner makes nest their own sections; a slot retired meanwhile
// cannot be recycled while this one is open, so revalidating cached
// offsets stays safe — a stale node is at worst marked, never a
// different node.
func (th *Thread) runBatch(op abalg.BatchOp, keys, vals, res []uint64, ok []bool) {
	th.enter()
	defer th.exit()
	th.path.invalidate() // cached offsets from prior epoch sections are dead
	th.batchBuf, th.batchTmp = abalg.OrderBatch(keys, th.batchBuf, th.batchTmp, checkKey)
	abalg.RunBatch(th.store(), op, th.batchBuf, vals, res, ok)
}

// FindBatch looks up every keys[i], storing the value into vals[i] and
// its presence into found[i] (dict.Batcher). Lock-free.
func (th *Thread) FindBatch(keys, vals []uint64, found []bool) {
	if len(vals) != len(keys) || len(found) != len(keys) {
		panic("pabtree: FindBatch result slices must match len(keys)")
	}
	if len(keys) == 0 {
		return
	}
	th.runBatch(abalg.BatchFind, keys, nil, vals, found)
}

// InsertBatch inserts <keys[i], vals[i]> where absent (dict.Batcher).
// Each leaf's run applies under one lock acquisition with the per-key
// flush discipline; a leaf that fills mid-run falls back to the per-key
// splitting insert for the key that needed the split.
func (th *Thread) InsertBatch(keys, vals []uint64, prev []uint64, inserted []bool) {
	if len(vals) != len(keys) || len(prev) != len(keys) || len(inserted) != len(keys) {
		panic("pabtree: InsertBatch result slices must match len(keys)")
	}
	if len(keys) == 0 {
		return
	}
	th.runBatch(abalg.BatchInsert, keys, vals, prev, inserted)
}

// DeleteBatch removes every present keys[i] (dict.Batcher). Each leaf's
// run applies under one lock acquisition; if a run leaves its leaf
// underfull the rebalance runs once per leaf, after the lock is
// released.
func (th *Thread) DeleteBatch(keys []uint64, prev []uint64, deleted []bool) {
	if len(prev) != len(keys) || len(deleted) != len(keys) {
		panic("pabtree: DeleteBatch result slices must match len(keys)")
	}
	if len(keys) == 0 {
		return
	}
	th.runBatch(abalg.BatchDelete, keys, nil, prev, deleted)
}

// collectBatchFinds answers every staged key in run from one validated
// double collect of the leaf. ok is false if the leaf has been unlinked
// (the descent may have read a pointer to it before the unlink; frozen
// contents cannot be served).
func (t *Tree) collectBatchFinds(off uint64, run []batchEnt, vals []uint64, found []bool) bool {
	v := t.vn(off)
	spins := 0
	for {
		v1 := v.ver.Load()
		if v1&1 == 1 {
			t.crashCheck()
			spinPause(&spins)
			continue
		}
		if v.marked.Load() {
			return false
		}
		for _, e := range run {
			var val uint64
			ok := false
			for i := 0; i < t.b; i++ {
				if t.loadKeyWord(off, i) == e.K {
					val = t.loadVal(off, i)
					ok = true
					break
				}
			}
			vals[e.Idx] = val
			found[e.Idx] = ok
		}
		if v.ver.Load() == v1 {
			return true
		}
		t.crashCheck()
		spinPause(&spins)
	}
}
