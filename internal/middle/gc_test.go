package middle

import (
	"bytes"
	"testing"

	"znscache/internal/sim"
)

// TestVictimTieBreaksToLowestZone: among equally valid full zones the
// picker must take the lowest zone index every time, so same-seed runs
// make the same GC choices.
func TestVictimTieBreaksToLowestZone(t *testing.T) {
	l := newLayer(t, false, func(c *Config) { c.OpenZones = 1 })
	rpz := l.regionsPerZone
	for id := 0; id < 4*rpz; id++ {
		if _, err := l.WriteRegion(0, id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.full) < 4 {
		t.Fatalf("test setup: %d full zones, want ≥ 4", len(l.full))
	}
	// Kill the same slot count in every full zone: all tie.
	lowest := -1
	for z := range l.full {
		for s := 0; s < rpz-2; s++ {
			l.invalidateLocked(l.zones[z].regions[s])
		}
		if lowest < 0 || z < lowest {
			lowest = z
		}
	}
	for i := 0; i < 50; i++ {
		if got, ok := l.pickVictimLocked(); !ok || got != lowest {
			t.Fatalf("pick %d: victim %d (ok=%v), want lowest tied zone %d", i, got, ok, lowest)
		}
	}
}

// BenchmarkMiddleWriteRegionGC overwrites random regions of a full layer
// with stored payloads, so every few writes a GC pass migrates live regions
// through the zone device and resets the victim.
func BenchmarkMiddleWriteRegionGC(b *testing.B) {
	l := newLayer(b, true)
	n := l.NumRegions()
	data := bytes.Repeat([]byte{0xA5}, testRegion)
	for id := 0; id < n; id++ {
		if _, err := l.WriteRegion(0, id, data); err != nil {
			b.Fatal(err)
		}
	}
	rng := sim.NewRand(1)
	b.ReportAllocs()
	b.SetBytes(testRegion)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int(rng.Uint64() % uint64(n))
		if _, err := l.EvictRegion(0, id); err != nil {
			b.Fatal(err)
		}
		if _, err := l.WriteRegion(0, id, data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(l.Migrated.Load())/float64(b.N), "migrations/op")
}
