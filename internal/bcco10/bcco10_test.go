package bcco10

import (
	"testing"

	"repro/internal/xrand"
)

func TestEmpty(t *testing.T) {
	tr := New()
	if _, ok := tr.Find(1); ok {
		t.Fatal("Find on empty tree succeeded")
	}
	if _, ok := tr.Delete(1); ok {
		t.Fatal("Delete on empty tree succeeded")
	}
	if got := tr.KeySum(); got != 0 {
		t.Fatalf("KeySum = %d, want 0", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBasicOps(t *testing.T) {
	tr := New()
	if old, ok := tr.Insert(10, 100); !ok || old != 0 {
		t.Fatalf("Insert(10) = (%d,%v), want (0,true)", old, ok)
	}
	if old, ok := tr.Insert(10, 999); ok || old != 100 {
		t.Fatalf("re-Insert(10) = (%d,%v), want (100,false)", old, ok)
	}
	if v, ok := tr.Find(10); !ok || v != 100 {
		t.Fatalf("Find(10) = (%d,%v), want (100,true)", v, ok)
	}
	if v, ok := tr.Delete(10); !ok || v != 100 {
		t.Fatalf("Delete(10) = (%d,%v), want (100,true)", v, ok)
	}
	if _, ok := tr.Find(10); ok {
		t.Fatal("Find(10) after delete succeeded")
	}
	if _, ok := tr.Delete(10); ok {
		t.Fatal("double Delete(10) succeeded")
	}
}

// TestRoutingNodeLifecycle exercises the partially external deletion:
// deleting a key with two children leaves a routing node; re-inserting
// the key revives it in place.
func TestRoutingNodeLifecycle(t *testing.T) {
	tr := New()
	for _, k := range []uint64{50, 25, 75, 10, 30, 60, 90} {
		tr.Insert(k, k*2)
	}
	// 50 is the root with two children: partially external delete.
	if v, ok := tr.Delete(50); !ok || v != 100 {
		t.Fatalf("Delete(50) = (%d,%v), want (100,true)", v, ok)
	}
	if _, ok := tr.Find(50); ok {
		t.Fatal("Find(50) succeeded after delete")
	}
	if tr.RoutingNodes() == 0 {
		t.Fatal("expected a routing node after two-child delete")
	}
	// Revive: insert must reuse the routing node, not add a duplicate.
	if _, ok := tr.Insert(50, 500); !ok {
		t.Fatal("revive Insert(50) failed")
	}
	if v, ok := tr.Find(50); !ok || v != 500 {
		t.Fatalf("Find(50) after revive = (%d,%v), want (500,true)", v, ok)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialModel(t *testing.T) {
	tr := New()
	model := make(map[uint64]uint64)
	rng := xrand.New(42)
	const keyRange = 500
	for i := 0; i < 60000; i++ {
		k := 1 + rng.Uint64n(keyRange)
		v := 1 + rng.Uint64n(1<<40)
		switch rng.Intn(3) {
		case 0:
			old, ok := tr.Insert(k, v)
			mv, present := model[k]
			if ok == present || (present && old != mv) {
				t.Fatalf("op %d: Insert(%d) = (%d,%v), model (%d,%v)", i, k, old, ok, mv, present)
			}
			if !present {
				model[k] = v
			}
		case 1:
			old, ok := tr.Delete(k)
			mv, present := model[k]
			if ok != present || (present && old != mv) {
				t.Fatalf("op %d: Delete(%d) = (%d,%v), model (%d,%v)", i, k, old, ok, mv, present)
			}
			delete(model, k)
		case 2:
			got, ok := tr.Find(k)
			mv, present := model[k]
			if ok != present || (present && got != mv) {
				t.Fatalf("op %d: Find(%d) = (%d,%v), model (%d,%v)", i, k, got, ok, mv, present)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Len(), len(model); got != want {
		t.Fatalf("Len = %d, model %d", got, want)
	}
}

// TestScanOrder checks ascending iteration and that routing nodes are
// skipped.
func TestScanOrder(t *testing.T) {
	tr := New()
	for k := uint64(1); k <= 100; k++ {
		tr.Insert(k*3, k)
	}
	for k := uint64(1); k <= 100; k += 2 {
		tr.Delete(k * 3)
	}
	var prev uint64
	count := 0
	tr.Scan(func(k, v uint64) {
		if k <= prev {
			t.Fatalf("Scan out of order: %d after %d", k, prev)
		}
		if k%6 != 0 {
			t.Fatalf("Scan yielded deleted key %d", k)
		}
		prev = k
		count++
	})
	if count != 50 {
		t.Fatalf("Scan yielded %d keys, want 50", count)
	}
}

// TestBalanceAfterSequentialInserts: ascending inserts are the classic
// AVL worst case; the relaxed rebalancing must still keep the tree
// logarithmic and, at quiescence, within classic AVL balance.
func TestBalanceAfterSequentialInserts(t *testing.T) {
	tr := New()
	const n = 1 << 12
	for k := uint64(1); k <= n; k++ {
		tr.Insert(k, k)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if b := tr.MaxBalance(); b > 1 {
		t.Fatalf("MaxBalance = %d after sequential inserts, want ≤1", b)
	}
	// AVL height bound: 1.4405 log2(n+2). For n=4096 that is ~17.3.
	if h := tr.TreeHeight(); h > 18 {
		t.Fatalf("height %d exceeds AVL bound for %d keys", h, n)
	}
}

func TestDescendingAndAlternatingInserts(t *testing.T) {
	tr := New()
	const n = 2048
	for k := uint64(n); k >= 1; k-- {
		tr.Insert(k, k)
	}
	for k := uint64(1); k <= n; k += 2 {
		tr.Delete(k)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Len(); got != n/2 {
		t.Fatalf("Len = %d, want %d", got, n/2)
	}
}

// TestRotationSwingsParentLast pins the store order inside rotations. The
// node a rotation promotes only grows its key range, so it takes no
// version change and a lock-free reader may pass through it at any
// instant. The parent's child pointer must therefore swing to the
// promoted node only once the promoted node's children are final;
// swinging it first let a reader route a key into a subtree that no
// longer covered it, so finds missed present keys and inserts attached
// new nodes out of order (Validate's "node K outside key range" under
// concurrent load). Each insert order below triggers one of the four
// rotations; at the swing every present key must still be reachable by a
// reader's descent, which may stop to wait at a shrinking node.
func TestRotationSwingsParentLast(t *testing.T) {
	defer func(h func()) { rotationHook = h }(rotationHook)
	reachable := func(tr *Tree, k uint64) bool {
		for n := tr.rootHolder.right.Load(); n != nil; n = n.childFor(k) {
			if n.ovl.Load()&ovlShrinking != 0 || n.key == k {
				return true
			}
		}
		return false
	}
	for _, order := range [][]uint64{{1, 2, 3}, {3, 2, 1}, {3, 1, 2}, {1, 3, 2}} {
		tr := New()
		var present []uint64
		rotations := 0
		rotationHook = func() {
			rotations++
			for _, k := range present {
				if !reachable(tr, k) {
					t.Errorf("insert order %v: key %d unreachable at the rotation's parent swing", order, k)
				}
			}
		}
		for _, k := range order {
			present = append(present, k)
			tr.Insert(k, k)
		}
		if rotations != 1 {
			t.Fatalf("insert order %v: %d rotations, want 1", order, rotations)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
