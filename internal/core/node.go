// Package core implements the two volatile data structures contributed by
// "Elimination (a,b)-trees with fast, durable updates" (Srivastava & Brown,
// PPoPP 2022):
//
//   - the OCC-ABtree (paper §3): a concurrent relaxed (a,b)-tree using
//     fine-grained versioned MCS locks for updates and lock-free,
//     version-validated searches, and
//   - the Elim-ABtree (paper §4): the OCC-ABtree extended with *publishing
//     elimination*, where an update publishes an ElimRecord in the leaf it
//     modified so that concurrent inserts/deletes of the same key can
//     linearize against it and return without writing to the tree.
//
// Both trees are instances of one Tree type (elimination is a construction
// option) because they share the node layout, search, and rebalancing code;
// the paper describes the Elim-ABtree as "a modified version of the
// OCC-ABtree". The rebalancing, validation and batch driver are shared
// with the durable trees of internal/pabtree: internal/abalg holds them
// once, generic over a node store, and store.go adapts this package's
// heap nodes to it.
//
// Keys and values are uint64. Key 0 is reserved as the paper's ⊥ (the
// empty-slot sentinel in leaf key arrays).
package core

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/abalg"
	"repro/internal/cohortlock"
	"repro/internal/mcslock"
	"repro/internal/rq"
)

const (
	// maxCap is the compile-time capacity of per-node arrays. The runtime
	// degree b can be configured anywhere in [4, maxCap]; the paper uses 11.
	maxCap = 16

	// DefaultMaxSize is the paper's b: at most 11 keys per leaf and 11
	// child pointers per internal node.
	DefaultMaxSize = 11

	// DefaultMinSize is the paper's a: at least 2 keys per leaf and 2
	// child pointers per internal node (except the root).
	DefaultMinSize = 2

	// emptyKey is ⊥: an empty slot in a leaf's keys array.
	emptyKey = 0
)

// Node kinds, shared with the algorithm package.
const (
	leafKind     = abalg.Leaf
	internalKind = abalg.Internal
	taggedKind   = abalg.Tagged
)

// ElimRecord summarises the last simple insert or successful delete that
// modified a leaf (paper §4.1). Records are immutable once published.
type ElimRecord struct {
	Key uint64
	Val uint64
	// Kind says which operation published the record (insert, delete or
	// replace); eliminating operations consult the §7 compatibility
	// matrix in upsert.go.
	Kind RecKind
	// Ver is the (odd) version the publishing operation installed with its
	// first version increment. An operation O' whose start version is
	// <= Ver was in progress when the publisher linearized, so O' may
	// eliminate itself against this record.
	Ver uint64
}

// A tree node is one of two layouts, chosen by kind when newLeaf or
// newInternal allocates it:
//
//   - leafNode: the shared header, then the leaf-only state — version,
//     elimination record, range-query stamp and chain — then vals.
//   - innerNode: the shared header, then ptrs. Internal and tagged
//     internal nodes use it.
//
// Tree links and the header-level code (search, locking, marking, and
// the store adapter the shared rebalancing runs on) hold a *node, the header. Each layout
// embeds the header first, so a *node is also the address of the
// layout it was allocated as: n.leaf() and n.inner() convert it back,
// and are only valid for that kind (checkptr, enabled by -race, rejects
// a conversion to a layout larger than the allocation). Code that works
// on one kind converts once and keeps the typed pointer.
//
// Fields are ordered hot-first, so a visit during a descent touches as
// few cache lines as possible: kind and nchildren lead the header and
// keys close it, directly followed by ptrs (internal) or by ver and the
// rest of the per-update leaf state, then vals (leaf). State only some
// options use lives behind one lazily allocated pointer (nodeOpts).
// Each layout is sized to fill its Go size class exactly (see
// TestNodeLayoutSizes): 320 B per leaf, 288 B per internal node.
//
// Mutability discipline:
//   - leaf keys/vals/size/ver/rec: mutated only while the leaf's lock is
//     held, between the two ver increments; read lock-free by searches.
//   - internal routing keys and nchildren: immutable after publication
//     ("once an internal node is created, its routing keys are never
//     changed" — §3.1). Adding/removing a routing key replaces the node.
//   - internal ptrs: mutated only while the node's lock is held; read
//     lock-free by searches.
//   - marked: set (once, never cleared) while the node's lock is held,
//     when the node is unlinked from the tree.
type node struct {
	kind abalg.Kind

	// nchildren is an internal node's child-pointer count (immutable);
	// the node has nchildren-1 routing keys in keys[0..nchildren-2].
	nchildren uint8

	// state packs the marked flag (markedBit) with a leaf's key count
	// (the low bits), so neither needs a word of its own. Both change
	// only under the node's lock; searches read them lock-free.
	state atomic.Uint32

	mcs mcslock.Lock

	// searchKey is the lower bound of the node's (immutable) key range,
	// which rebalancing uses to re-locate the node (see internal/abalg).
	searchKey uint64

	// opts holds state only some options use, allocated on first use.
	opts atomic.Pointer[nodeOpts]

	keys [maxCap]atomic.Uint64
}

// leafNode is the leaf layout.
type leafNode struct {
	node

	// ver is the leaf's version: even when quiescent, odd while the lock
	// holder is modifying the leaf. Searches use it for double-collect
	// validation (§3.2); publishing elimination keys off it (§4.1).
	ver atomic.Uint64

	// rec is the leaf's elimination record (Elim-ABtree only; nil until
	// the first publishing update).
	rec atomic.Pointer[ElimRecord]

	// rqTS is the global range-query timestamp observed by the leaf's
	// most recent write; rqVers chains preserved pre-write states for
	// in-flight snapshot scans. Both are written only inside the leaf's
	// version window (or before publication) — see rqsnap.go.
	rqTS   atomic.Uint64
	rqVers atomic.Pointer[rq.Version]

	vals [maxCap]atomic.Uint64
}

// innerNode is the layout of internal and tagged internal nodes.
type innerNode struct {
	node
	ptrs [maxCap]atomic.Pointer[node]
}

// nodeOpts is the per-node state of the lock and combining ablations:
// the TAS lock (WithTASLocks), the NUMA-aware cohort lock
// (WithCohortLocks) and the leaf's flat-combining publication list
// (WithLeafCombining). The default configurations never allocate it.
type nodeOpts struct {
	tas    mcslock.TASLock
	cohort cohortlock.Lock
	fcq    fcQueue
}

// markedBit is the marked flag in node.state; the bits below it hold a
// leaf's key count (at most maxCap).
const markedBit = 1 << 31

func (n *node) isLeaf() bool { return n.kind == leafKind }
func (n *node) tagged() bool { return n.kind == taggedKind }

// leaf returns the leaf layout of n, which must be a leaf.
func (n *node) leaf() *leafNode { return (*leafNode)(unsafe.Pointer(n)) }

// inner returns the internal layout of n, which must not be a leaf.
func (n *node) inner() *innerNode { return (*innerNode)(unsafe.Pointer(n)) }

// marked reports whether n has been unlinked from the tree.
func (n *node) marked() bool { return n.state.Load()&markedBit != 0 }

// mark flags n as unlinked. The caller holds n's lock, as does every
// other writer of n.state, so the read-modify-write cannot lose an update.
func (n *node) mark() { n.state.Store(n.state.Load() | markedBit) }

// optsOf returns n's option state, allocating it on first use.
func (n *node) optsOf() *nodeOpts {
	if o := n.opts.Load(); o != nil {
		return o
	}
	n.opts.CompareAndSwap(nil, new(nodeOpts))
	return n.opts.Load()
}

// size returns the leaf's number of non-empty keys.
func (l *leafNode) size() int64 { return int64(l.state.Load() &^ markedBit) }

// addSize adjusts the leaf's key count by delta (the lock holder only)
// and returns the new count.
func (l *leafNode) addSize(delta int) int64 {
	return int64(l.state.Add(uint32(delta)) &^ markedBit)
}

// routingKeys returns the number of routing keys in an internal node.
func (n *node) routingKeys() int { return int(n.nchildren) - 1 }

// newLeaf builds a leaf containing items (at most b of them), packed into
// the first len(items) slots. searchKey is the leaf's key-range lower
// bound.
func newLeaf(items []abalg.KV, searchKey uint64) *leafNode {
	l := &leafNode{node: node{kind: leafKind, searchKey: searchKey}}
	for i, it := range items {
		l.keys[i].Store(it.K)
		l.vals[i].Store(it.V)
	}
	l.state.Store(uint32(len(items)))
	return l
}

// newInternal builds an internal or tagged node with the given routing keys
// and children; len(children) must equal len(keys)+1. searchKey is the
// node's key-range lower bound.
func newInternal(k abalg.Kind, keys []uint64, children []*node, searchKey uint64) *node {
	if len(children) != len(keys)+1 {
		panic("core: internal node children/keys arity mismatch")
	}
	n := &innerNode{node: node{kind: k, nchildren: uint8(len(children)), searchKey: searchKey}}
	for i, rk := range keys {
		n.keys[i].Store(rk)
	}
	for i, c := range children {
		n.ptrs[i].Store(c)
	}
	return &n.node
}
