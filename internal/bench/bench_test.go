package bench

import (
	"runtime"
	"testing"
	"time"
)

// TestAllStructuresUnderHarness runs every registered structure through a
// short mixed workload with key-sum validation — the integration test
// that the adapters, prefill, and validation agree for every dictionary.
func TestAllStructuresUnderHarness(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			d := NewDict(name, 2000)
			cfg := Config{
				Threads:   4,
				KeyRange:  2000,
				UpdatePct: 50,
				ZipfS:     0,
				Duration:  150 * time.Millisecond,
				Seed:      42,
			}
			Prefill(d, cfg)
			res, err := Run(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 {
				t.Fatal("no operations completed")
			}
		})
	}
}

func TestHarnessZipfSkew(t *testing.T) {
	for _, name := range []string{"OCC-ABtree", "Elim-ABtree"} {
		d := NewDict(name, 1000)
		cfg := Config{Threads: 4, KeyRange: 1000, UpdatePct: 100, ZipfS: 1, Duration: 150 * time.Millisecond, Seed: 7}
		Prefill(d, cfg)
		if _, err := Run(d, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestPrefillReachesTarget(t *testing.T) {
	d := NewDict("OCC-ABtree", 10000)
	Prefill(d, Config{KeyRange: 10000, Seed: 1})
	// KeySum != 0 and roughly half the range present.
	n := 0
	d.(coreDict).T.Scan(func(_, _ uint64) { n++ })
	if n != 5000 {
		t.Fatalf("prefill size = %d, want 5000", n)
	}
}

// TestPrefillExactUnderContention repeats Prefill with four workers
// racing through the per-key tail: each must land exactly on the
// target. Before inserts reserved their slot, workers that all saw
// target-1 inserted together and overshot.
func TestPrefillExactUnderContention(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for run := 0; run < 50; run++ {
		d := NewDict("OCC-ABtree", 2000)
		Prefill(d, Config{KeyRange: 2000, Seed: uint64(run) + 1})
		n := 0
		d.(coreDict).T.Scan(func(_, _ uint64) { n++ })
		if n != 1000 {
			t.Fatalf("run %d: prefill size = %d, want 1000", run, n)
		}
	}
}

func TestUnknownStructurePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDict("nope", 10)
}
