package core

import (
	"unsafe"

	"repro/internal/abalg"
)

// Quiescent inspection utilities: they traverse the tree without
// synchronization and are intended for tests, validation and
// post-benchmark accounting, when no concurrent operations are running.
// The walks themselves are internal/abalg's.

// Scan calls fn for every key-value pair, in ascending key order. It must
// only be called while the tree is quiescent.
func (t *Tree) Scan(fn func(k, v uint64)) { abalg.Scan(t.walker(), fn) }

// Len returns the number of keys (quiescent only).
func (t *Tree) Len() int {
	n := 0
	t.Scan(func(_, _ uint64) { n++ })
	return n
}

// KeySum returns the sum of all keys, wrapping on overflow. It implements
// the paper's §6 validation scheme: benchmark threads track the sum of
// keys they successfully insert minus those they delete, and the grand
// total must equal KeySum at the end of the run.
func (t *Tree) KeySum() uint64 {
	var sum uint64
	t.Scan(func(k, _ uint64) { sum += k })
	return sum
}

// Height returns the number of levels below the entry node (quiescent
// only). An empty tree (a single leaf root) has height 1.
func (t *Tree) Height() int { return abalg.Height(t.walker()) }

// Stats summarises the tree's shape for experiment logs.
type Stats struct {
	Keys        int
	Leaves      int
	Internal    int
	Tagged      int
	Height      int
	AvgLeafFill float64 // mean keys per leaf / b

	// LeafBytes and InternalBytes are the heap the reachable nodes
	// occupy: their blocks (each layout fills its Go size class exactly)
	// plus, for leaves, the published elimination records they hold.
	// Tagged nodes count as internal. Preserved range-query versions and
	// the ablations' option state are not counted.
	LeafBytes     int64
	InternalBytes int64
}

// Heap bytes of one leaf block, one internal block and one elimination
// record; TestNodeLayoutSizes pins each to the block Go allocates.
const (
	leafBlock   = int64(unsafe.Sizeof(leafNode{}))
	innerBlock  = int64(unsafe.Sizeof(innerNode{}))
	recordBlock = int64(unsafe.Sizeof(ElimRecord{}))
)

// Stats collects shape statistics (quiescent only).
func (t *Tree) Stats() Stats {
	sh := abalg.ShapeOf(t.walker())
	return Stats{
		Keys:          sh.Keys,
		Leaves:        sh.Leaves,
		Internal:      sh.Internal,
		Tagged:        sh.Tagged,
		Height:        sh.Height,
		AvgLeafFill:   sh.AvgLeafFill,
		LeafBytes:     int64(sh.Leaves)*leafBlock + int64(sh.Records)*recordBlock,
		InternalBytes: int64(sh.Internal+sh.Tagged) * innerBlock,
	}
}

// Validate checks the structural invariants of the (a,b)-tree (paper
// Theorem 3.5; abalg.Validate lists them) on a quiescent tree and
// returns the first violation found.
func (t *Tree) Validate() error { return abalg.Validate(t.walker()) }
