package abalg_test

// Cross-store differential test: the same seeded single-threaded mix of
// per-key and batched updates, run on the volatile tree (internal/core)
// and the durable tree (internal/pabtree), must return the same results
// and leave trees of the same shape. Both run this package's
// rebalancing and batch driver over their own node stores, so a
// divergence points at a store adapter or at a per-package hot path.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/pabtree"
	"repro/internal/pmem"
	"repro/internal/xrand"
)

func TestCrossStoreDifferential(t *testing.T) {
	seeds, ops, batches := 20, 40000, 300
	if testing.Short() {
		seeds = 4
	}
	const keyRange, batchLen = 4096, 64
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		vt := core.New()
		pt := pabtree.New(pmem.New(1 << 20))
		vth, pth := vt.NewThread(), pt.NewThread()
		rng := xrand.New(seed)

		for i := 0; i < ops; i++ {
			k := 1 + rng.Uint64n(keyRange)
			if rng.Uint64n(2) == 0 {
				v := rng.Uint64()
				vv, vok := vth.Insert(k, v)
				pv, pok := pth.Insert(k, v)
				if vv != pv || vok != pok {
					t.Fatalf("seed %d op %d: Insert(%d) core (%d,%v), pabtree (%d,%v)", seed, i, k, vv, vok, pv, pok)
				}
			} else {
				vv, vok := vth.Delete(k)
				pv, pok := pth.Delete(k)
				if vv != pv || vok != pok {
					t.Fatalf("seed %d op %d: Delete(%d) core (%d,%v), pabtree (%d,%v)", seed, i, k, vv, vok, pv, pok)
				}
			}
		}
		sameTrees(t, fmt.Sprintf("seed %d after per-key ops", seed), vt, pt)

		keys, vals := make([]uint64, batchLen), make([]uint64, batchLen)
		vres, pres := make([]uint64, batchLen), make([]uint64, batchLen)
		vok, pok := make([]bool, batchLen), make([]bool, batchLen)
		for b := 0; b < batches; b++ {
			for i := range keys {
				keys[i], vals[i] = 1+rng.Uint64n(keyRange), rng.Uint64()
			}
			insert := b%2 == 0
			if insert {
				vth.InsertBatch(keys, vals, vres, vok)
				pth.InsertBatch(keys, vals, pres, pok)
			} else {
				vth.DeleteBatch(keys, vres, vok)
				pth.DeleteBatch(keys, pres, pok)
			}
			for i := range keys {
				if vres[i] != pres[i] || vok[i] != pok[i] {
					t.Fatalf("seed %d batch %d (insert %v) key %d: core (%d,%v), pabtree (%d,%v)",
						seed, b, insert, keys[i], vres[i], vok[i], pres[i], pok[i])
				}
			}
		}
		sameTrees(t, fmt.Sprintf("seed %d after batches", seed), vt, pt)
	}
}

// sameTrees fails the test unless both trees are valid and have the same
// shape and contents.
func sameTrees(t *testing.T, when string, vt *core.Tree, pt *pabtree.Tree) {
	t.Helper()
	if err := vt.Validate(); err != nil {
		t.Fatalf("%s: core: %v", when, err)
	}
	if err := pt.Validate(); err != nil {
		t.Fatalf("%s: pabtree: %v", when, err)
	}
	vs, ps := vt.Stats(), pt.Stats()
	type shape struct{ Height, Leaves, Internal, Keys int }
	vsh := shape{vs.Height, vs.Leaves, vs.Internal, vs.Keys}
	psh := shape{ps.Height, ps.Leaves, ps.Internal, ps.Keys}
	if vsh != psh {
		t.Fatalf("%s: core shape %+v, pabtree shape %+v", when, vsh, psh)
	}
	var vkv, pkv [][2]uint64
	vt.Scan(func(k, v uint64) { vkv = append(vkv, [2]uint64{k, v}) })
	pt.Scan(func(k, v uint64) { pkv = append(pkv, [2]uint64{k, v}) })
	if len(vkv) != len(pkv) {
		t.Fatalf("%s: core scans %d pairs, pabtree %d", when, len(vkv), len(pkv))
	}
	for i := range vkv {
		if vkv[i] != pkv[i] {
			t.Fatalf("%s: pair %d: core %v, pabtree %v", when, i, vkv[i], pkv[i])
		}
	}
}
