package harness

import (
	"hash/fnv"
	"runtime"
	"testing"

	"znscache/internal/cache"
	"znscache/internal/workload"
)

// TestResidentMemoryBoundedByDevice warms a two-shard Region-Cache at the
// serving benchmark's geometry (16 zones of 4 MiB per shard, tracked
// payloads, read index) until the devices have absorbed four times their
// capacity, then checks that the live heap stays within 1.75× the
// simulated device bytes. Flash pages are the device's own payload store,
// region buffers are capped by BufferMemory, and the read index keeps one
// copy of each live value; garbage from per-page copies or a buffer per
// region would push the heap past the bound.
func TestResidentMemoryBoundedByDevice(t *testing.T) {
	if testing.Short() {
		t.Skip("warms 128 MiB of simulated flash four times over")
	}
	if raceEnabled {
		t.Skip("heap figures under the race detector are not comparable")
	}
	const shards, zones, zoneMiB = 2, 16, 4
	var rigs []*Rig
	var capacity uint64
	for i := 0; i < shards; i++ {
		hw := DefaultHW(zones)
		hw.BlocksPerZone = zoneMiB
		rig, err := Build(RigConfig{
			Scheme: RegionCache, HW: hw,
			CacheBytes:    zones * hw.ZoneBytes() * 8 / 10,
			TrackValues:   true,
			ReadIndex:     true,
			AdmissionSeed: cache.ShardSeed(0, i),
		})
		if err != nil {
			t.Fatal(err)
		}
		rigs = append(rigs, rig)
		capacity += uint64(rig.ZNS.Size())
	}
	absorbed := func() (b uint64) {
		for _, r := range rigs {
			b += r.DeviceWriteBytes()
		}
		return b
	}
	// Key space about twice the cache, as on the serving benchmark.
	gen := workload.NewBC(workload.BCConfig{Keys: 64 << 10, Seed: 1})
	value := make([]byte, 64<<10)
	for i := range value {
		value[i] = byte(i * 31)
	}
	shardOf := func(key string) *cache.Cache {
		h := fnv.New32a()
		h.Write([]byte(key))
		return rigs[h.Sum32()%shards].Engine
	}
	for ops := 0; absorbed() < 4*capacity; ops++ {
		op := gen.Next()
		eng := shardOf(op.Key)
		switch op.Kind {
		case workload.OpGet:
			if _, ok, err := eng.Get(op.Key); err != nil {
				t.Fatal(err)
			} else if ok {
				continue
			}
			fallthrough
		case workload.OpSet:
			if err := eng.Set(op.Key, value[:op.ValLen], 0); err != nil {
				t.Fatal(err)
			}
		case workload.OpDelete:
			eng.Delete(op.Key)
		}
		if ops > 5_000_000 {
			t.Fatalf("devices absorbed only %d of %d bytes", absorbed(), 4*capacity)
		}
	}
	for _, r := range rigs {
		if r.Middle.Migrated.Load() == 0 {
			t.Fatal("no GC migrations during warm-up; not at steady state")
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ratio := float64(ms.HeapAlloc) / float64(capacity)
	t.Logf("heap %.1f MiB over %d MiB of simulated flash: %.2fx", float64(ms.HeapAlloc)/(1<<20), capacity>>20, ratio)
	if ratio > 1.75 {
		t.Fatalf("live heap is %.2fx the simulated device bytes, want ≤ 1.75x", ratio)
	}
	runtime.KeepAlive(rigs)
}
