package abalg

// Batched point operations: the FindBatch/InsertBatch/DeleteBatch of
// both tree packages apply a whole key batch with the per-key semantics
// of Find/Insert/Delete while sharing the expensive per-operation work
// across the batch.
//
// The per-key operations pay a full root-to-leaf descent and (for
// updates) a lock acquisition per key. A batch is instead staged and
// sorted by key (OrderBatch: internal/batchkit's stable LSD radix, so
// equal keys keep input order), then driven down the tree by a
// partition descent: every internal node the batch touches is visited
// once, its sorted run split among its children by the immutable
// routing keys — so the upper levels cost O(distinct nodes), not
// O(keys x height). At each leaf the whole run is
//
//   - answered from one validated double collect (finds), or
//   - applied under one lock acquisition (updates; each key still gets
//     its own version window — and, in a durable store, its own flush
//     schedule — so every operation linearizes individually: the batch
//     is not atomic).
//
// When a leaf cannot serve its run — it was unlinked under the descent,
// or fills up mid-run so a key needs the splitting insert — the run's
// remainder is retried through the slow runner, an iterative loop that
// re-descends per leaf through the handle's cached scan path and
// handles splits via the per-key insert. Leaves move rarely, so the
// partition descent is the common case and the slow runner the churn
// case.
//
// Results are scattered back through each staged key's input index, so
// the caller sees input order. Equal keys apply in input order;
// distinct keys commute. Hence a batch's results always match the
// per-key loop (the differential tests pin this). Staging lives in
// buffers the caller keeps, so steady-state batches allocate nothing.

import "repro/internal/batchkit"

// BatchOp selects which point operation a batch applies.
type BatchOp uint8

const (
	BatchFind BatchOp = iota
	BatchInsert
	BatchDelete
)

// OrderBatch stages keys into buf, sorted by key for run formation,
// after passing each to check (which panics on a reserved key). tmp is
// the sort's scratch. It returns the staged batch and the spare buffer;
// the caller keeps both for reuse.
func OrderBatch(keys []uint64, buf, tmp []batchkit.Ent, check func(uint64)) (ents, spare []batchkit.Ent) {
	ents = buf[:0]
	for i, k := range keys {
		check(k)
		ents = append(ents, batchkit.Ent{K: k, Idx: i})
	}
	return batchkit.Sort(ents, tmp)
}

// RunBatch applies op to every staged key of run (sorted by OrderBatch)
// by a partition descent from the entry. vals is the caller's value
// slice (inserts; nil otherwise), res/ok its result slices.
func RunBatch[N comparable, S Store[N]](s S, op BatchOp, run []batchkit.Ent, vals, res []uint64, ok []bool) {
	runSubtree(s, op, s.Entry(), run, vals, res, ok)
}

// runSubtree drives one sorted run down the subtree at n, splitting it
// among children by the immutable routing keys so every node the batch
// touches is visited exactly once. Single-child segments descend
// iteratively (the whole run usually funnels through the top levels);
// multi-child partitions recurse, bounded by the tree height.
func runSubtree[N comparable, S Store[N]](s S, op BatchOp, n N, run []batchkit.Ent, vals, res []uint64, ok []bool) {
	for s.Kind(n) != Leaf {
		for i, c := 0, 0; i < len(run); c++ {
			// run[i] goes to child c (at or right of the previous one);
			// so does every later key below c's upper bound.
			var child N
			var hi uint64
			var hasHi bool
			c, child, hi, hasHi = s.Route(n, run[i].K, c)
			end := i + 1
			for end < len(run) && (!hasHi || run[end].K < hi) {
				end++
			}
			if i == 0 && end == len(run) {
				n = child // whole run funnels into one child
				break
			}
			runSubtree(s, op, child, run[i:end], vals, res, ok)
			i = end
			if i == len(run) {
				return // run fully dispatched to children
			}
		}
	}
	applyLeafRun(s, op, n, run, vals, res, ok)
}

// applyLeafRun serves one leaf's whole run: finds from one validated
// double collect, updates through applyRunLocked. It runs the slow
// runner for whatever remainder the leaf could not serve (unlinked
// leaf, or a full leaf needing a splitting insert).
func applyLeafRun[N comparable, S Store[N]](s S, op BatchOp, leaf N, run []batchkit.Ent, vals, res []uint64, ok []bool) {
	if op == BatchFind {
		if !s.CollectFinds(leaf, run, res, ok) {
			runSlow(s, op, run, vals, res, ok)
		}
		return
	}
	consumed, _, _ := applyRunLocked(s, op, leaf, run, vals, res, ok)
	if consumed < len(run) {
		// Marked leaf: retry the whole run. Full leaf: the splitting
		// insert (inside the slow runner) restructures the leaf, so the
		// rest of the run re-descends there too.
		runSlow(s, op, run[consumed:], vals, res, ok)
	}
}

// applyRunLocked applies run's keys to the leaf under one lock
// acquisition, one version window per key. It reports how many staged
// keys it consumed and why it stopped: the leaf was marked (retry the
// whole run elsewhere), or an insert found it full (consumed keys are
// done; run[consumed] needs the splitting insert). After unlocking it
// triggers the underfull repair exactly like the per-key delete path.
func applyRunLocked[N comparable, S Store[N]](s S, op BatchOp, leaf N, run []batchkit.Ent, vals, res []uint64, ok []bool) (consumed int, marked, full bool) {
	s.Lock(leaf)
	if s.Marked(leaf) {
		s.UnlockAll()
		return 0, true, false
	}
	i := 0
	for ; i < len(run); i++ {
		e := run[i]
		if op == BatchInsert {
			done, old, ins := s.LeafInsert(leaf, e.K, vals[e.Idx])
			if !done {
				full = true
				break
			}
			res[e.Idx], ok[e.Idx] = old, ins
		} else {
			res[e.Idx], ok[e.Idx] = s.LeafDelete(leaf, e.K)
		}
	}
	size := s.Size(leaf)
	s.UnlockAll()
	if a, _ := s.Degree(); op == BatchDelete && size < a {
		FixUnderfull(s, leaf)
	}
	return i, false, full
}

// runSlow is the churn path: an iterative per-leaf loop that re-locates
// each staged key through the handle's cached scan path, re-descending
// from the root whenever a leaf moved, and handling splitting inserts
// via the per-key insert. It serves the run remainders the partition
// descent could not.
func runSlow[N comparable, S Store[N]](s S, op BatchOp, ents []batchkit.Ent, vals, res []uint64, ok []bool) {
	i := 0
	for i < len(ents) {
		leaf, bound, hasBound := s.SearchScan(ents[i].K)
		j := batchkit.RunEnd(ents, i, bound, hasBound)
		if op == BatchFind {
			if !s.CollectFinds(leaf, ents[i:j], res, ok) {
				s.InvalidatePath()
				continue // leaf was unlinked: re-descend to its replacement
			}
			i = j
			continue
		}
		consumed, marked, full := applyRunLocked(s, op, leaf, ents[i:j], vals, res, ok)
		i += consumed
		if marked {
			s.InvalidatePath()
			continue
		}
		if full {
			e := ents[i]
			res[e.Idx], ok[e.Idx] = s.Insert(e.K, vals[e.Idx])
			i++
			s.InvalidatePath() // the split restructured this neighborhood
		}
	}
}
