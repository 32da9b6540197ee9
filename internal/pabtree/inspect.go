package pabtree

import (
	"fmt"

	"repro/internal/abalg"
)

// Quiescent inspection utilities (no synchronization; tests and
// post-benchmark accounting only). The walks are internal/abalg's.

// Scan calls fn for every key-value pair in ascending key order.
func (t *Tree) Scan(fn func(k, v uint64)) { abalg.Scan(t.walker(), fn) }

// Len returns the number of keys.
func (t *Tree) Len() int {
	n := 0
	t.Scan(func(_, _ uint64) { n++ })
	return n
}

// KeySum returns the wrapping sum of all keys (the paper's §6 validation).
func (t *Tree) KeySum() uint64 {
	var sum uint64
	t.Scan(func(k, _ uint64) { sum += k })
	return sum
}

// Height returns the number of levels below the entry node.
func (t *Tree) Height() int { return abalg.Height(t.walker()) }

// Validate checks the Theorem 5.4 structural invariants (abalg.Validate
// lists them) on the volatile view of a quiescent tree (after Recover,
// volatile == persisted, so this validates the recovered image too).
func (t *Tree) Validate() error { return abalg.Validate(t.walker()) }

// ValidatePersisted verifies that every reachable node's persisted image
// matches its volatile image for the durable fields (keys, values for
// leaves; routing keys and unmarked pointers for internals). On a
// quiescent tree every update has completed its flushes, so the views
// must agree; a mismatch means some code path forgot a flush.
func (t *Tree) ValidatePersisted() error {
	var walk func(off uint64) error
	walk = func(off uint64) error {
		meta := t.meta(off)
		if pm := t.arena.PersistedLoad(off + metaWord); pm != meta {
			return fmt.Errorf("node %d: meta volatile %#x vs persisted %#x", off, meta, pm)
		}
		if kindOf(meta) == leafKind {
			for i := 0; i < t.b; i++ {
				kw := off + keysBase + uint64(i)
				if t.arena.Load(kw) != t.arena.PersistedLoad(kw) {
					return fmt.Errorf("leaf %d key slot %d not persisted", off, i)
				}
				k := t.arena.Load(kw)
				vw := off + valsBase + uint64(i)
				if k != emptyKey && t.arena.Load(vw) != t.arena.PersistedLoad(vw) {
					return fmt.Errorf("leaf %d val slot %d not persisted", off, i)
				}
			}
			return nil
		}
		for i := 0; i < nchildrenOf(meta)-1; i++ {
			kw := off + keysBase + uint64(i)
			if t.arena.Load(kw) != t.arena.PersistedLoad(kw) {
				return fmt.Errorf("internal %d routing key %d not persisted", off, i)
			}
		}
		for i := 0; i < nchildrenOf(meta); i++ {
			pw := off + ptrsBase + uint64(i)
			vol := t.arena.Load(pw)
			per := t.arena.PersistedLoad(pw)
			if vol&markBit != 0 {
				return fmt.Errorf("internal %d child %d marked at quiescence", off, i)
			}
			if per&^markBit != vol {
				return fmt.Errorf("internal %d child %d: volatile %d vs persisted %d", off, i, vol, per)
			}
			if err := walk(vol); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.entryOff)
}

// Stats summarises the tree's shape and arena usage for experiment logs.
type Stats struct {
	Keys        int
	Leaves      int
	Internal    int
	Tagged      int
	Height      int
	AvgLeafFill float64 // mean keys per leaf / b
	SlotsUsed   uint64  // bump-allocated node slots (never shrinks)
}

// Stats collects shape statistics (quiescent only).
func (t *Tree) Stats() Stats {
	sh := abalg.ShapeOf(t.walker())
	return Stats{
		Keys:        sh.Keys,
		Leaves:      sh.Leaves,
		Internal:    sh.Internal,
		Tagged:      sh.Tagged,
		Height:      sh.Height,
		AvgLeafFill: sh.AvgLeafFill,
		SlotsUsed:   t.arena.Allocated() / strideWords,
	}
}
