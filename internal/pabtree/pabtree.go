// Package pabtree implements the paper's durably linearizable trees: the
// p-OCC-ABtree and p-Elim-ABtree (§5). The algorithms are those of
// internal/core with the paper's persistence additions. The two
// packages share one copy of the rebalancing (fixTagged, fixUnderfull),
// validation, batch driver and elimination matrix: internal/abalg holds
// it, generic over a node store, and store.go supplies this package's
// persistent store. The per-key hot paths, range scans and recovery
// stay in this package. The persistence additions:
//
//   - node keys, values and child pointers live in a simulated persistent
//     memory arena (internal/pmem); locks, versions, sizes, marks and
//     elimination records are volatile and are reconstructed by Recover;
//   - a simple insert flushes the value, then the key (two flushes); the
//     insert becomes durable — and, if interrupted by a crash, linearizes —
//     when the key reaches PM. A successful delete flushes the ⊥ key;
//   - structural updates (splitting inserts, fixTagged, fixUnderfull)
//     flush all newly created nodes, then publish them with the
//     link-and-persist technique: the new child pointer is written with a
//     mark bit, flushed, and unmarked; traversals that encounter a marked
//     pointer wait until it is persisted, so operations never depend on
//     unpersisted data;
//   - node slots are recycled through epoch-based reclamation (the DEBRA
//     analogue), since the Go GC cannot manage arena memory.
//
// Recovery walks the persisted image from the entry node's fixed offset,
// rebuilds the volatile node headers (lock, version, size, marked), strips
// pointer mark bits, rebuilds the slot free list from reachability, and
// completes any rebalancing (tagged or underfull nodes) that a crash
// interrupted — yielding a tree on which the strict-linearizability
// invariants of §5.1 hold again.
package pabtree

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/abalg"
	"repro/internal/epoch"
	"repro/internal/mcslock"
	"repro/internal/pmem"
	"repro/internal/rq"
)

// Persistent node layout, in 64-bit words relative to the node offset.
// A node occupies one 32-word (4 cache line) stride.
const (
	strideWords = 32
	metaWord    = 0  // kind | nchildren<<8 (immutable, flushed at creation)
	keysBase    = 1  // leaf keys [b] / internal routing keys [b-1]
	valsBase    = 12 // leaf values [b]
	ptrsBase    = 12 // internal child offsets [b] (same region as vals)

	// maxB is the largest supported node degree for the persistent layout.
	maxB = 11

	// markBit flags a child pointer that has been written but whose line
	// has not yet been flushed (link-and-persist).
	markBit = uint64(1) << 63

	emptyKey = 0
)

// Node kinds, shared with the algorithm package.
const (
	leafKind     = abalg.Leaf
	internalKind = abalg.Internal
	taggedKind   = abalg.Tagged
)

func packMeta(k abalg.Kind, nchildren int) uint64 { return uint64(k) | uint64(nchildren)<<8 }
func kindOf(meta uint64) abalg.Kind               { return abalg.Kind(meta & 0xff) }
func nchildrenOf(meta uint64) int                 { return int(meta >> 8 & 0xff) }

// elimRecord mirrors core.ElimRecord for the p-Elim-ABtree. Records are
// volatile: elimination never crosses a crash (an operation is only
// eliminated after the publisher's second — volatile — version increment,
// by which point the publisher is durably linearized, §5).
type elimRecord struct {
	key, val, ver uint64
	kind          abalg.RecKind
}

// vnode holds a node's volatile fields, indexed by arena slot. Everything
// here is reset by Recover.
type vnode struct {
	mcs       mcslock.Lock
	marked    atomic.Bool
	ver       atomic.Uint64
	size      atomic.Int64
	rec       atomic.Pointer[elimRecord]
	searchKey uint64

	// rqTS is the global range-query timestamp observed by the leaf's
	// most recent write; rqVers chains preserved pre-write states for
	// in-flight snapshot scans (rqsnap.go). Volatile: reset by allocSlot
	// and absent after Recover.
	rqTS   atomic.Uint64
	rqVers atomic.Pointer[rq.Version]
}

// Tree is a p-OCC-ABtree, or a p-Elim-ABtree when built with
// WithElimination. All operations go through a Thread (NewThread).
type Tree struct {
	arena    *pmem.Arena
	vnodes   []vnode
	entryOff uint64

	// Slot free list: a Treiber stack of recycled node slots, fed by the
	// epoch manager after the grace period.
	freeHead atomic.Uint64 // tag<<32 | slot (slot 0 = empty)
	freeNext []atomic.Uint32
	em       *epoch.Manager[uint32]

	a, b int
	elim bool

	elimInserts atomic.Uint64
	elimDeletes atomic.Uint64
	elimUpserts atomic.Uint64

	// rqp coordinates linearizable range queries (rqsnap.go).
	rqp *rq.Provider
}

// ElimStats reports how many inserts and deletes were eliminated against
// a published record rather than executed against the tree.
func (t *Tree) ElimStats() (inserts, deletes, upserts uint64) {
	return t.elimInserts.Load(), t.elimDeletes.Load(), t.elimUpserts.Load()
}

// Option configures a Tree.
type Option func(*config)

type config struct {
	a, b  int
	elim  bool
	clock *rq.Clock
}

// WithElimination enables publishing elimination (p-Elim-ABtree).
func WithElimination() Option { return func(c *config) { c.elim = true } }

// WithRQClock couples the tree's range-query subsystem to a shared
// linearization clock instead of a private one (see core.WithRQClock):
// trees on one clock serve mutually linearizable snapshot scans through
// RangeSnapshotAt. The clock is volatile; pass it again on Recover.
func WithRQClock(c *rq.Clock) Option { return func(cf *config) { cf.clock = c } }

// WithDegree sets the (a,b) bounds; 2 <= a <= b/2, 4 <= b <= 11.
func WithDegree(a, b int) Option { return func(c *config) { c.a, c.b = a, b } }

// New creates an empty persistent tree in arena. The arena must be fresh
// (nothing allocated); the tree claims it entirely. The entry node lands
// at a fixed offset so Recover can find it after a crash.
func New(arena *pmem.Arena, opts ...Option) *Tree {
	if arena.Allocated() != 0 {
		panic("pabtree: arena must be fresh")
	}
	cfg := config{a: 2, b: maxB}
	for _, o := range opts {
		o(&cfg)
	}
	t := newTreeShell(arena, cfg)

	// Slot 0 is reserved so that offset 0 can mean "null".
	if arena.Alloc(strideWords) != 0 {
		panic("pabtree: reserved slot not at offset 0")
	}
	entry := t.bumpSlot()
	if entry != entryOffset {
		panic("pabtree: entry not at fixed offset")
	}
	root := t.bumpSlot()
	t.initLeaf(root, nil, 1)
	t.initInternalNode(entry, internalKind, nil, []uint64{root}, 1)
	return t
}

// entryOffset is the fixed arena offset of the entry node (slot 1).
const entryOffset = strideWords

// newTreeShell builds the volatile superstructure shared by New and
// Recover.
func newTreeShell(arena *pmem.Arena, cfg config) *Tree {
	if cfg.b < 4 || cfg.b > maxB || cfg.a < 2 || cfg.a > cfg.b/2 {
		panic(fmt.Sprintf("pabtree: invalid degree (a=%d, b=%d)", cfg.a, cfg.b))
	}
	slots := arena.Cap() / strideWords
	t := &Tree{
		arena:    arena,
		vnodes:   make([]vnode, slots),
		freeNext: make([]atomic.Uint32, slots),
		entryOff: entryOffset,
		a:        cfg.a,
		b:        cfg.b,
		elim:     cfg.elim,
	}
	t.em = epoch.NewManager[uint32](t.pushFree)
	if cfg.clock == nil {
		cfg.clock = rq.NewClock()
	}
	t.rqp = rq.NewProviderWith(cfg.clock)
	return t
}

// Arena returns the backing persistent memory arena.
func (t *Tree) Arena() *pmem.Arena { return t.arena }

// Elim reports whether publishing elimination is enabled.
func (t *Tree) Elim() bool { return t.elim }

// RQClock returns the linearization clock the tree's range-query
// subsystem runs on (shared with other trees under WithRQClock).
func (t *Tree) RQClock() *rq.Clock { return t.rqp.Clock() }

// MinSize returns a; MaxSize returns b.
func (t *Tree) MinSize() int { return t.a }

// MaxSize returns the maximum node size b.
func (t *Tree) MaxSize() int { return t.b }

func (t *Tree) vn(off uint64) *vnode { return &t.vnodes[off/strideWords] }

// ---- slot management ----

func (t *Tree) pushFree(slot uint32) {
	for {
		h := t.freeHead.Load()
		t.freeNext[slot].Store(uint32(h))
		nh := (h>>32+1)<<32 | uint64(slot)
		if t.freeHead.CompareAndSwap(h, nh) {
			return
		}
	}
}

func (t *Tree) popFree() uint32 {
	for {
		h := t.freeHead.Load()
		slot := uint32(h)
		if slot == 0 {
			return 0
		}
		next := t.freeNext[slot].Load()
		nh := (h>>32+1)<<32 | uint64(next)
		if t.freeHead.CompareAndSwap(h, nh) {
			return slot
		}
	}
}

// bumpSlot claims a never-used slot from the arena and returns its offset.
func (t *Tree) bumpSlot() uint64 {
	return t.arena.Alloc(strideWords)
}

// allocSlot returns the offset of a free node slot, preferring recycled
// ones, and resets its volatile header.
func (t *Tree) allocSlot() uint64 {
	var off uint64
	if slot := t.popFree(); slot != 0 {
		off = uint64(slot) * strideWords
	} else {
		off = t.bumpSlot()
	}
	v := t.vn(off)
	v.marked.Store(false)
	v.ver.Store(0)
	v.size.Store(0)
	v.rec.Store(nil)
	v.rqTS.Store(0)
	v.rqVers.Store(nil)
	return off
}

// retire hands a replaced node's slot to the epoch manager; it returns to
// the free list after the grace period. The node's unlinking must already
// be flushed, so the slot is unreachable in the persisted image as well.
func (th *Thread) retire(off uint64) {
	th.eh.Retire(uint32(off / strideWords))
}

// ---- node construction (all words flushed before the caller links) ----

// initLeaf writes and flushes a leaf node's persistent words and resets
// its volatile header. searchKey is the node's key-range lower bound.
func (t *Tree) initLeaf(off uint64, items []abalg.KV, searchKey uint64) {
	a := t.arena
	a.Store(off+metaWord, packMeta(leafKind, 0))
	for i := 0; i < t.b; i++ {
		var k, v uint64
		if i < len(items) {
			k, v = items[i].K, items[i].V
		}
		a.Store(off+keysBase+uint64(i), k)
		a.Store(off+valsBase+uint64(i), v)
	}
	a.FlushRange(off, valsBase+uint64(t.b))
	vn := t.vn(off)
	vn.size.Store(int64(len(items)))
	vn.searchKey = searchKey
}

// initInternalNode writes and flushes an internal (or tagged) node.
func (t *Tree) initInternalNode(off uint64, k abalg.Kind, keys []uint64, children []uint64, searchKey uint64) {
	if len(children) != len(keys)+1 {
		panic("pabtree: internal node arity mismatch")
	}
	a := t.arena
	a.Store(off+metaWord, packMeta(k, len(children)))
	for i := 0; i < t.b-1; i++ {
		var rk uint64
		if i < len(keys) {
			rk = keys[i]
		}
		a.Store(off+keysBase+uint64(i), rk)
	}
	for i := 0; i < t.b; i++ {
		var c uint64
		if i < len(children) {
			c = children[i]
		}
		a.Store(off+ptrsBase+uint64(i), c)
	}
	a.FlushRange(off, ptrsBase+uint64(t.b))
	t.vn(off).searchKey = searchKey
}

// ---- persistent field access ----

func (t *Tree) meta(off uint64) uint64 { return t.arena.Load(off + metaWord) }

func (t *Tree) loadKeyWord(off uint64, i int) uint64 {
	return t.arena.Load(off + keysBase + uint64(i))
}

func (t *Tree) loadVal(off uint64, i int) uint64 {
	return t.arena.Load(off + valsBase + uint64(i))
}

// loadChild returns child i of the internal node at off, waiting out the
// link-and-persist mark bit: a marked pointer has been written but not yet
// flushed, and following it could let an operation depend on unpersisted
// state (§5).
func (t *Tree) loadChild(off uint64, i int) uint64 {
	spins := 0
	for {
		raw := t.arena.Load(off + ptrsBase + uint64(i))
		if raw&markBit == 0 {
			return raw
		}
		t.crashCheck()
		spinPause(&spins)
	}
}

// setChildPersist publishes a new child pointer with link-and-persist:
// write marked, flush, unmark. The caller holds the node's lock and has
// already flushed the pointed-to nodes.
func (t *Tree) setChildPersist(off uint64, i int, child uint64) {
	w := off + ptrsBase + uint64(i)
	t.arena.Store(w, child|markBit)
	t.arena.Flush(w)
	t.arena.Store(w, child)
}

// crashCheck aborts spin loops when a simulated crash has occurred, so
// waiters behind a crashed lock holder or marked pointer observe the
// crash instead of hanging (only relevant in crash-injection tests).
func (t *Tree) crashCheck() {
	if t.arena.FailpointTriggered() {
		panic(pmem.ErrCrash)
	}
}

func spinPause(spins *int) {
	*spins++
	if *spins%32 == 0 {
		runtime.Gosched()
	}
}
