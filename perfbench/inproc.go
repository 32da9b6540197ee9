package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	abtree "repro"
	"repro/internal/xrand"
)

// treeHandle is the per-goroutine API both public tree kinds share.
type treeHandle interface {
	Find(key uint64) (uint64, bool)
	Insert(key, val uint64) (uint64, bool)
	Delete(key uint64) (uint64, bool)
	RangeSnapshot(lo, hi uint64, fn func(k, v uint64) bool)
	InsertBatch(keys, vals []uint64, prev []uint64, inserted []bool)
}

// treeCaller drives one in-process handle. Every value stored is its
// key, so each reply is checked against the key it answers.
type treeCaller struct {
	h       treeHandle
	scanLen uint64
	lo, hi  uint64
	last    uint64
	pairs   int
	bad     bool
	visit   func(k, v uint64) bool
}

func newTreeCaller(h treeHandle, scanLen uint64) *treeCaller {
	c := &treeCaller{h: h, scanLen: scanLen}
	c.visit = func(k, v uint64) bool {
		if k < c.lo || k > c.hi || k <= c.last || v != k {
			c.bad = true
		}
		c.last = k
		c.pairs++
		return true
	}
	return c
}

func (c *treeCaller) do(op opKind, key uint64) (int, error) {
	switch op {
	case opFind:
		if v, ok := c.h.Find(key); ok && v != key {
			return 0, fmt.Errorf("find %d returned value %d", key, v)
		}
		return 0, nil
	case opInsert:
		v, ok := c.h.Insert(key, key)
		if !ok && v != key {
			return 0, fmt.Errorf("insert %d found value %d", key, v)
		}
		return landed(ok), nil
	case opDelete:
		v, ok := c.h.Delete(key)
		if ok && v != key {
			return 0, fmt.Errorf("delete %d removed value %d", key, v)
		}
		return landed(ok), nil
	}
	c.lo, c.hi, c.last, c.pairs, c.bad = key, key+c.scanLen-1, 0, 0, false
	c.h.RangeSnapshot(c.lo, c.hi, c.visit)
	if c.bad {
		return 0, fmt.Errorf("scan [%d, %d] reported a pair out of range or order", c.lo, c.hi)
	}
	return c.pairs, nil
}

func landed(ok bool) int {
	if ok {
		return 1
	}
	return 0
}

// prefill inserts uniform keys from [1, keyRange] with two callers until
// about keyRange/2 landed, and returns the wrapping sum of landed keys.
// Batches keep setup short; the tail goes key by key so the overshoot
// stays below the caller count. Resident keys are counted afterwards
// with Len, never taken from the target.
func prefill(keyRange, seed uint64, newInserter func() func(keys []uint64, ok []bool) error) (uint64, error) {
	const workers, batch = 2, 128
	target := keyRange / 2
	var inserted, sum atomic.Uint64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ins := newInserter()
			rng := xrand.New(seed*7919 + uint64(w) + 1)
			keys, ok := make([]uint64, batch), make([]bool, batch)
			for attempts := uint64(0); attempts < 16*keyRange; {
				done := inserted.Load()
				if done >= target {
					return
				}
				n := batch
				if target-done <= workers*batch {
					n = 1
				}
				for i := 0; i < n; i++ {
					keys[i] = 1 + rng.Uint64n(keyRange)
				}
				if err := ins(keys[:n], ok[:n]); err != nil {
					errs[w] = err
					return
				}
				attempts += uint64(n)
				var s, l uint64
				for i := 0; i < n; i++ {
					if ok[i] {
						s += keys[i]
						l++
					}
				}
				sum.Add(s)
				inserted.Add(l)
			}
			errs[w] = fmt.Errorf("prefill: target %d not reached", target)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return sum.Load(), nil
}

func batchInserter(h treeHandle) func(keys []uint64, ok []bool) error {
	prev := make([]uint64, 128)
	return func(keys []uint64, ok []bool) error {
		h.InsertBatch(keys, keys, prev[:len(keys)], ok)
		return nil
	}
}

// coreSystem is a volatile Elim-ABtree driven in process.
type coreSystem struct {
	t       *abtree.Tree
	scanLen uint64
}

func setupCore(keyRange, scanLen, seed uint64) (system, uint64, error) {
	t := abtree.NewElim()
	sum, err := prefill(keyRange, seed, func() func([]uint64, []bool) error {
		return batchInserter(t.NewHandle())
	})
	return &coreSystem{t: t, scanLen: scanLen}, sum, err
}

func (s *coreSystem) newCaller(int) caller { return newTreeCaller(s.t.NewHandle(), s.scanLen) }

func (s *coreSystem) spanName(k opKind) string {
	switch k {
	case opFind:
		return "core.find"
	case opScan:
		return "rq.scan"
	}
	return "core.update"
}

func (s *coreSystem) counters() map[string]float64 {
	ei, ed, _ := s.t.ElimStats()
	scans, versions := s.t.RQStats()
	return map[string]float64{"elim": float64(ei + ed), "rq.scans": float64(scans), "rq.versions": float64(versions)}
}

func (s *coreSystem) keys() int { return s.t.Len() }

func (s *coreSystem) verify(wantSum uint64) ([]gate, map[string]float64) {
	extra := map[string]float64{"core.height": float64(s.t.Height())}
	return []gate{
		sumGate("keysum", wantSum, s.t.KeySum()),
		errGate("validate", s.t.Validate()),
	}, extra
}

func (s *coreSystem) close() {}

// pabSystem is a p-Elim-ABtree on a simulated persistent-memory arena.
type pabSystem struct {
	t    *abtree.PersistentTree
	seed uint64
}

// pabArenaWords sizes the simulated PM arena: 1<<23 words are about 262k
// node slots, over twice what the prefilled tree uses, and freed slots
// are recycled, so churn never exhausts it.
const pabArenaWords = 1 << 23

func setupPab(keyRange, seed uint64) (system, uint64, error) {
	t := abtree.NewPersistentElim(abtree.WithArenaWords(pabArenaWords))
	sum, err := prefill(keyRange, seed, func() func([]uint64, []bool) error {
		return batchInserter(t.NewHandle())
	})
	return &pabSystem{t: t, seed: seed}, sum, err
}

func (s *pabSystem) newCaller(int) caller { return newTreeCaller(s.t.NewHandle(), 1) }

func (s *pabSystem) spanName(k opKind) string {
	if k == opFind {
		return "pabtree.find"
	}
	return "pabtree.update"
}

func (s *pabSystem) counters() map[string]float64 {
	fl, fe := s.t.FlushStats()
	return map[string]float64{"pmem.flushes": float64(fl), "pmem.fences": float64(fe)}
}

func (s *pabSystem) keys() int { return s.t.Len() }

// recoveries is how many crash-and-recover rounds verify times; the
// reported recovery time is their median.
const recoveries = 3

// verify reconciles the key sum, then simulates power loss and recovers,
// repeatedly, checking each recovered tree holds exactly the pre-crash
// contents (every update had returned, so every one is durable).
func (s *pabSystem) verify(wantSum uint64) ([]gate, map[string]float64) {
	gates := []gate{sumGate("keysum", wantSum, s.t.KeySum()), errGate("validate", s.t.Validate())}
	sum, n := s.t.KeySum(), s.t.Len()
	var crashRecover, recover []float64
	for i := 0; i < recoveries; i++ {
		runtime.GC()
		t0 := time.Now()
		s.t.SimulateCrash(0, s.seed+uint64(i))
		t1 := time.Now()
		s.t = s.t.Recover()
		t2 := time.Now()
		crashRecover = append(crashRecover, t2.Sub(t0).Seconds())
		recover = append(recover, float64(t2.Sub(t1).Nanoseconds()))
		name := fmt.Sprintf("recover%d", i+1)
		gates = append(gates,
			sumGate(name+".keysum", sum, s.t.KeySum()),
			intGate(name+".len", n, s.t.Len()),
			errGate(name+".validate", s.t.Validate()))
	}
	return gates, map[string]float64{"recover_s": median(crashRecover), "pabtree.recover_ns": median(recover)}
}

func (s *pabSystem) close() {}
