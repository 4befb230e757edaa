package harness

import (
	"hash/crc32"
	"hash/fnv"
	"testing"
	"time"

	"znscache/internal/cache"
	"znscache/internal/flash"
	"znscache/internal/workload"
)

// goldenCounters are the simulated quantities a seeded replay must
// reproduce bit for bit. They depend only on the simulated timing and
// accounting model, so a change to how the simulator stores or moves
// payload bytes must leave every one of them untouched.
type goldenCounters struct {
	DeviceBytes uint64
	Evictions   uint64
	Hits        uint64
	GCRuns      uint64
	SimTime     time.Duration
	Migrated    uint64 // middle-layer GC migrations (Region-Cache only)
	Programs    uint64
	Erases      uint64
	// ValueSum is the CRC-32 of every value a tracked Get returned, in
	// order (0 metadata-only).
	ValueSum uint64
}

// goldenPool backs every tracked value: a value is a window into it at an
// offset derived from the key, so values differ per key and cost no
// per-byte work to build.
var goldenPool = func() []byte {
	p := make([]byte, 1<<20)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range p {
		x = x*6364136223846793005 + 1442695040888963407
		p[i] = byte(x >> 56)
	}
	return p
}()

// goldenValue derives a deterministic payload for key.
func goldenValue(key string, n int) []byte {
	h := fnv.New64a()
	h.Write([]byte(key))
	off := h.Sum64() % uint64(len(goldenPool)-n)
	return goldenPool[off : off+uint64(n)]
}

// runGolden replays a short seeded bc mix, read-through, against one scheme
// at a geometry small enough to evict and to run device GC within the run.
func runGolden(t *testing.T, s Scheme, track bool) goldenCounters {
	t.Helper()
	hw := DefaultHW(8)
	cfg := RigConfig{Scheme: s, HW: hw, CacheBytes: 6 * hw.ZoneBytes(), TrackValues: track}
	switch s {
	case ZoneCache:
		cfg.ZoneCount = 6
	case RegionCache:
		// Region LRU, as in Table 1, so GC victims still hold live regions
		// and many of them tie on valid count; the extra zones are the
		// middle layer's open set and GC headroom.
		cfg.HW = DefaultHW(10)
		cfg.CacheBytes = 7 * hw.ZoneBytes()
		cfg.Policy, cfg.PolicySet = cache.LRU, true
	}
	rig, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build(%v): %v", s, err)
	}
	gen := workload.NewBC(workload.BCConfig{Keys: 64 << 10, Seed: 7})
	eng := rig.Engine
	var sum uint64
	set := func(op workload.Op) {
		var v []byte
		if track {
			v = goldenValue(op.Key, op.ValLen)
		}
		if err := eng.Set(op.Key, v, op.ValLen); err != nil {
			t.Fatalf("%v Set: %v", s, err)
		}
	}
	for i := 0; i < 200_000; i++ {
		op := gen.Next()
		switch op.Kind {
		case workload.OpGet:
			v, ok, err := eng.Get(op.Key)
			if err != nil {
				t.Fatalf("%v Get: %v", s, err)
			}
			if !ok {
				set(op)
				continue
			}
			sum = uint64(crc32.Update(uint32(sum), crc32.IEEETable, v))
		case workload.OpSet:
			set(op)
		case workload.OpDelete:
			eng.Delete(op.Key)
		}
	}
	eng.Drain()
	st := eng.Stats()
	g := goldenCounters{
		DeviceBytes: rig.DeviceWriteBytes(),
		Evictions:   st.Evictions,
		Hits:        st.Hits,
		SimTime:     rig.Clock.Now(),
		ValueSum:    sum,
	}
	var arr *flash.Array
	switch s {
	case RegionCache:
		g.GCRuns = rig.Middle.GCRuns.Load()
		g.Migrated = rig.Middle.Migrated.Load()
		arr = rig.ZNS.Array()
	case BlockCache:
		g.GCRuns = rig.SSD.GCRuns.Load()
		arr = rig.SSD.Array()
	case FileCache:
		g.GCRuns = rig.FS.CleanRuns.Load()
		arr = rig.ZNS.Array()
	case ZoneCache:
		g.GCRuns = rig.ZNS.Resets.Load()
		arr = rig.ZNS.Array()
	}
	g.Programs, g.Erases = arr.Programs.Load(), arr.Erases.Load()
	return g
}

// TestGoldenSimulatedCounters pins the simulated counters of short seeded
// Zone, File and Block-Cache replays, metadata-only and with tracked
// payloads. The values were recorded before the flash page store and the
// engine's region buffers became pooled; storage changes must not move
// simulated time or accounting by a single nanosecond or byte.
func TestGoldenSimulatedCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 200k ops per scheme")
	}
	if raceEnabled {
		t.Skip("a minute under the race detector; CI runs it without -race")
	}
	// Tracked runs must match the metadata-only counters; only ValueSum,
	// the fold of the payloads Gets returned, differs between the two.
	want := []struct {
		scheme   Scheme
		counters goldenCounters
		valueSum uint64
	}{
		{ZoneCache, goldenCounters{DeviceBytes: 268435456, Evictions: 11, Hits: 76078, GCRuns: 11,
			SimTime: 5388982250, Programs: 65536, Erases: 176}, 286360991},
		{FileCache, goldenCounters{DeviceBytes: 1851015168, Evictions: 774, Hits: 75410, GCRuns: 105,
			SimTime: 68994365550, Programs: 451908, Erases: 1680}, 2118443601},
		{BlockCache, goldenCounters{DeviceBytes: 283115520, Evictions: 697, Hits: 76496, GCRuns: 33,
			SimTime: 3525010150, Programs: 69120, Erases: 165}, 211385669},
	}
	for _, w := range want {
		for _, track := range []bool{false, true} {
			exp := w.counters
			if track {
				exp.ValueSum = w.valueSum
			}
			if got := runGolden(t, w.scheme, track); got != exp {
				t.Errorf("%v track=%v:\n got %+v\nwant %+v", w.scheme, track, got, exp)
			}
		}
	}
}

// TestRegionCacheSameSeedIdentical: Region-Cache GC breaks victim ties by
// zone index, so same-seed replays past many GC passes agree exactly.
func TestRegionCacheSameSeedIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 200k ops three times")
	}
	first := runGolden(t, RegionCache, false)
	if first.GCRuns < 10 || first.Migrated == 0 {
		t.Fatalf("replay too short to exercise GC: %+v", first)
	}
	for i := 0; i < 2; i++ {
		if again := runGolden(t, RegionCache, false); again != first {
			t.Fatalf("same-seed replay %d diverged:\n got %+v\nwant %+v", i+2, again, first)
		}
	}
}
