package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/xrand"
)

// TestCombiningSequentialModel checks the flat-combining tree against a
// model map when there is never any combining to do (single thread) —
// every op becomes its own combiner.
func TestCombiningSequentialModel(t *testing.T) {
	tr := New(WithLeafCombining())
	th := tr.NewThread()
	model := make(map[uint64]uint64)
	rng := xrand.New(77)
	for i := 0; i < 50000; i++ {
		k := 1 + rng.Uint64n(300)
		v := 1 + rng.Uint64n(1<<40)
		switch rng.Intn(3) {
		case 0:
			old, ok := th.Insert(k, v)
			mv, present := model[k]
			if ok == present || (present && old != mv) {
				t.Fatalf("op %d: Insert(%d) = (%d,%v), model (%d,%v)", i, k, old, ok, mv, present)
			}
			if !present {
				model[k] = v
			}
		case 1:
			old, ok := th.Delete(k)
			mv, present := model[k]
			if ok != present || (present && old != mv) {
				t.Fatalf("op %d: Delete(%d) = (%d,%v), model (%d,%v)", i, k, old, ok, mv, present)
			}
			delete(model, k)
		default:
			got, ok := th.Find(k)
			mv, present := model[k]
			if ok != present || (present && got != mv) {
				t.Fatalf("op %d: Find(%d) = (%d,%v), model (%d,%v)", i, k, got, ok, mv, present)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCombiningBatch is the deterministic white-box test: while one
// thread holds a leaf's lock, other threads' updates pile up in the
// publication list; when the lock is released, a single combiner must
// apply the whole batch.
func TestCombiningBatch(t *testing.T) {
	tr := New(WithLeafCombining())
	th := tr.NewThread()
	// One leaf (root leaf) with a couple of keys; b=11 leaves room.
	th.Insert(100, 1)
	th.Insert(200, 2)

	leaf := tr.search(100, nil).Node
	holder := tr.NewThread()
	holder.lockNode(leaf)

	const waiters = 6
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wth := tr.NewThread()
			if w%2 == 0 {
				wth.Insert(uint64(300+w), uint64(w)) // distinct keys, fits in leaf
			} else {
				wth.Delete(uint64(300 + w - 1)) // may or may not find it; both fine
			}
		}(w)
	}
	// Let the waiters publish their records and start spinning.
	time.Sleep(50 * time.Millisecond)
	holder.unlockAll()
	wg.Wait()

	if tr.FCCombined() == 0 {
		t.Fatal("no operations were combined despite a blocked batch")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCombiningConcurrent runs the §6 key-sum validation scheme over the
// flat-combining tree under high contention, including leaf splits
// (fcLeafFull fallbacks) and merges.
func TestCombiningConcurrent(t *testing.T) {
	for _, keyRange := range []uint64{8, 1000} {
		const (
			workers = 8
			opsEach = 30000
		)
		tr := New(WithLeafCombining())
		deltas := make([]int64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := tr.NewThread()
				rng := xrand.New(uint64(w)*40507 + 11)
				var sum int64
				for i := 0; i < opsEach; i++ {
					k := 1 + rng.Uint64n(keyRange)
					switch rng.Intn(3) {
					case 0:
						if _, ok := th.Insert(k, k); ok {
							sum += int64(k)
						}
					case 1:
						if _, ok := th.Delete(k); ok {
							sum -= int64(k)
						}
					default:
						th.Find(k)
					}
				}
				deltas[w] = sum
			}(w)
		}
		wg.Wait()
		var want uint64
		for _, d := range deltas {
			want += uint64(d)
		}
		if got := tr.KeySum(); got != want {
			t.Fatalf("keyRange=%d: KeySum = %d, want %d", keyRange, got, want)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("keyRange=%d: %v", keyRange, err)
		}
	}
}

func TestCombiningIncompatibleOptions(t *testing.T) {
	for _, opts := range [][]Option{
		{WithLeafCombining(), WithElimination()},
		{WithLeafCombining(), WithSortedLeaves()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("New accepted incompatible combining options")
				}
			}()
			New(opts...)
		}()
	}
}
