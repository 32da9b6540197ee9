package core

// Batched point operations: FindBatch/InsertBatch/DeleteBatch apply a
// whole key batch with the per-key semantics of Find/Insert/Delete
// while sharing the expensive per-operation work across the batch. The
// driver — staging, partition descent, per-leaf runs, churn path — is
// internal/abalg's RunBatch; this file supplies the entry points and
// the leaf-level collect. All staging lives in per-Thread scratch:
// steady-state batched operations allocate nothing (TestAllocsBatchOps).

import (
	"repro/internal/abalg"
	"repro/internal/batchkit"
)

// batchEnt is one key of an in-flight batched operation (see
// batchkit.Ent).
type batchEnt = batchkit.Ent

// runBatch stages keys into the Thread's scratch, sorted, and applies
// op to them.
func (th *Thread) runBatch(op abalg.BatchOp, keys, vals, res []uint64, ok []bool) {
	th.batchBuf, th.batchTmp = abalg.OrderBatch(keys, th.batchBuf, th.batchTmp, checkKey)
	abalg.RunBatch(th.store(), op, th.batchBuf, vals, res, ok)
}

// FindBatch looks up every keys[i], storing the value into vals[i] and
// its presence into found[i] (dict.Batcher; abalg's batch.go states
// the batched-operation contract). Like Find it takes no locks.
func (th *Thread) FindBatch(keys, vals []uint64, found []bool) {
	if len(vals) != len(keys) || len(found) != len(keys) {
		panic("core: FindBatch result slices must match len(keys)")
	}
	if len(keys) == 0 {
		return
	}
	th.runBatch(abalg.BatchFind, keys, nil, vals, found)
}

// InsertBatch inserts <keys[i], vals[i]> where absent (dict.Batcher).
// Each leaf's
// run applies under one lock acquisition; a leaf that fills mid-run
// falls back to the per-key splitting insert for the key that needed
// the split. On Elim-ABtrees the batched path locks directly instead of
// publishing (elimination targets cross-thread same-key contention,
// which a sorted single-thread batch does not exhibit).
func (th *Thread) InsertBatch(keys, vals []uint64, prev []uint64, inserted []bool) {
	if len(vals) != len(keys) || len(prev) != len(keys) || len(inserted) != len(keys) {
		panic("core: InsertBatch result slices must match len(keys)")
	}
	if len(keys) == 0 {
		return
	}
	th.runBatch(abalg.BatchInsert, keys, vals, prev, inserted)
}

// DeleteBatch removes every present keys[i] (dict.Batcher). Each leaf's
// run applies
// under one lock acquisition; if a run leaves its leaf underfull the
// rebalance runs once per leaf, after the lock is released — the same
// repair the per-key path would have triggered, batched.
func (th *Thread) DeleteBatch(keys []uint64, prev []uint64, deleted []bool) {
	if len(prev) != len(keys) || len(deleted) != len(keys) {
		panic("core: DeleteBatch result slices must match len(keys)")
	}
	if len(keys) == 0 {
		return
	}
	th.runBatch(abalg.BatchDelete, keys, nil, prev, deleted)
}

// collectBatchFinds answers every staged key in run from one validated
// double collect of the leaf. ok is false if the leaf has been unlinked
// (the descent may have read a pointer to it before the unlink, so the
// frozen contents cannot be served — same rule as snapshotLeaf).
func (t *Tree) collectBatchFinds(l *leafNode, run []batchEnt, vals []uint64, found []bool) bool {
	spins := 0
	for {
		v1 := l.ver.Load()
		if v1&1 == 1 {
			spinPause(&spins)
			continue
		}
		if l.marked() {
			return false
		}
		for _, e := range run {
			var val uint64
			ok := false
			for i := 0; i < t.b; i++ {
				if l.keys[i].Load() == e.K {
					val = l.vals[i].Load()
					ok = true
					break
				}
			}
			vals[e.Idx] = val
			found[e.Idx] = ok
		}
		if l.ver.Load() == v1 {
			return true
		}
		spinPause(&spins)
	}
}
