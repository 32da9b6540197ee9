package core

// Find elimination — the paper's §4.1 closing remark: "the ElimRecord
// could also be used to linearize finds in high-contention workloads. In
// some extreme scenarios, this could possibly be useful in preventing
// find(key) from being starved by an endless stream of updates to key."
//
// A find whose start version is <= rec.Ver was in progress when the
// record's operation linearized, so it may linearize immediately after
// the publisher: an insert or replace record answers (rec.Val, true), a
// delete record answers (⊥, false). Enabled with WithFindElimination
// (off by default, like the paper, whose leaves are small enough that
// find starvation never materialized in their experiments).

// WithFindElimination lets finds answer from the leaf's elimination
// record when their double-collect scan is interrupted by concurrent
// updates. Requires WithElimination.
func WithFindElimination() Option { return func(t *Tree) { t.elimFinds = true } }

// findElim is the Find path with elimination: one optimistic scan; if it
// is interrupted, try the record before rescanning.
func (th *Thread) findElim(key uint64) (uint64, bool) {
	t := th.t
	leaf := t.search(key, nil).Node.leaf()
	startVer := leaf.ver.Load()
	spins := 0
	for {
		v, found, consistent := t.leafScanOnce(leaf, key)
		if consistent {
			return v, found
		}
		// Interrupted by a concurrent update: consult the record.
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
		if rec != nil && startVer <= rec.Ver && rec.Key == key {
			t.elimFindHits.Add(1)
			// Linearize immediately after the publisher.
			if rec.Kind == RecDelete {
				return 0, false
			}
			return rec.Val, true
		}
		spinPause(&spins)
	}
}
