package main

import (
	"testing"
	"time"

	"znscache/internal/cache"
	"znscache/internal/harness"
	"znscache/internal/workload"
)

// TestTracedStackMatchesBuild replays the same seeded bc stream through a
// harness.Build rig and through the decorated assembly with tracing on, and
// requires identical simulated counters: the decorators only observe.
// Region-Cache is compared only before its first GC pass, because its GC
// victim choice breaks valid-count ties in map iteration order (see
// NOTES.md); Zone, File and Block are compared after GC has run.
func TestTracedStackMatchesBuild(t *testing.T) {
	const zones = 16
	hw := harness.DefaultHW(zones)
	for _, tc := range []struct {
		scheme harness.Scheme
		ops    int
		gc     bool // the replay must reach GC (File, Block) or must not (Region)
	}{
		{harness.ZoneCache, 400_000, false},
		{harness.FileCache, 400_000, true},
		{harness.BlockCache, 400_000, true},
		{harness.RegionCache, 100_000, false},
	} {
		t.Run(tc.scheme.String(), func(t *testing.T) {
			cfg := harness.RigConfig{Scheme: tc.scheme, HW: hw, Policy: cache.LRU, PolicySet: true}
			if tc.scheme == harness.ZoneCache {
				cfg.ZoneCount = zones
			} else {
				cfg.CacheBytes = int64(zones) * hw.ZoneBytes() * 9 / 10 / (256 << 10) * (256 << 10)
				cfg.OPRatio = 0.10
				cfg.FSMetaOverheadSet = true
			}
			plain, err := harness.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			ln := &lane{t: tr}
			decorated, err := assemble(cfg, ln)
			if err != nil {
				t.Fatal(err)
			}
			tr.on.Store(true)
			var got [2]counters
			for i, rr := range []*replayRig{{rig: plain}, {rig: decorated, ln: ln}} {
				rr.scheme = tc.scheme
				rr.gen = workload.NewBC(workload.BCConfig{Keys: 48 << 10, Seed: 7})
				for n := 0; n < tc.ops; n++ {
					rr.step(rr.gen.Next(), nil)
				}
				if rr.failed != 0 {
					t.Fatalf("%d engine calls failed", rr.failed)
				}
				got[i] = snapRig(rr.rig)
			}
			want, have := got[0], got[1]
			for _, f := range []struct {
				name string
				a, b uint64
			}{
				{"device bytes", want.devBytes, have.devBytes},
				{"evictions", want.evictions, have.evictions},
				{"hits", want.hits, have.hits},
				{"misses", want.misses, have.misses},
				{"GC runs", gcRuns(want), gcRuns(have)},
				{"simulated ns", want.simNs, have.simNs},
			} {
				if f.a != f.b {
					t.Errorf("%s: harness.Build %d, traced stack %d", f.name, f.a, f.b)
				}
			}
			if ran := gcRuns(want) > 0; ran != tc.gc {
				t.Fatalf("GC ran = %v after %d ops, want %v: the replay does not cover the case", ran, tc.ops, tc.gc)
			}
			tr.mu.Lock()
			defer tr.mu.Unlock()
			if tr.agg[spStoreWrite].calls == 0 || tr.violations != 0 {
				t.Fatalf("tracing saw %d region writes, %d nesting violations", tr.agg[spStoreWrite].calls, tr.violations)
			}
			if tc.scheme != harness.BlockCache && tr.agg[spZnsWrite].calls == 0 {
				t.Fatal("no zns.Zoned writes were traced")
			}
		})
	}
}

func TestQuantileNeedsTail(t *testing.T) {
	var s samples
	for i := 1; i <= 1000; i++ {
		s.add(time.Duration(i) * time.Microsecond)
	}
	if v, ok := s.quantile(0.99); v != 990 || !ok {
		t.Fatalf("p99 of 1..1000us = %v (ok=%v), want 990 with 10 samples beyond", v, ok)
	}
	s.v = s.v[:999]
	if _, ok := s.quantile(0.99); ok {
		t.Fatal("p99 of 999 samples reported with fewer than 10 samples beyond it")
	}
}

func TestValueCheck(t *testing.T) {
	vm := newValueMaker(1)
	v := append([]byte(nil), vm.make("key-1", 100)...)
	if err := checkValue("key-1", v); err != nil {
		t.Fatal(err)
	}
	if err := checkValue("key-2", v); err != errWrongKey {
		t.Fatalf("value under another key: %v", err)
	}
	if err := checkValue("key-1", v[:60]); err != errTorn {
		t.Fatalf("short value: %v", err)
	}
	v[50] ^= 1
	if err := checkValue("key-1", v); err != errTorn {
		t.Fatalf("flipped byte: %v", err)
	}
	if err := checkStored("key-1", vm.stored("key-1", 64)); err != nil {
		t.Fatalf("engine-format value: %v", err)
	}
}
