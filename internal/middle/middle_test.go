package middle

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"znscache/internal/device"
	"znscache/internal/flash"
	"znscache/internal/sim"
	"znscache/internal/zns"
)

const testRegion = 4 * device.SectorSize // 16 KiB regions

// newZNS: 32 zones × 8 blocks × 16 pages × 4 KiB = 512 KiB zones, so 32
// regions-per-zone... actually 512 KiB / 16 KiB = 32 regions per zone.
func newZNS(t testing.TB, store bool) *zns.Device {
	t.Helper()
	d, err := zns.New(zns.Config{
		Geometry: flash.Geometry{
			Channels: 2, DiesPerChan: 2, BlocksPerDie: 64,
			PagesPerBlock: 16, PageSize: device.SectorSize,
		},
		Timing:        flash.DefaultTiming(),
		BlocksPerZone: 8,
		MaxOpenZones:  8,
		StoreData:     store,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newLayer(t testing.TB, store bool, mutate ...func(*Config)) *Layer {
	t.Helper()
	cfg := Config{RegionSize: testRegion, OpenZones: 2, MinEmptyZones: 4}
	for _, m := range mutate {
		m(&cfg)
	}
	l, err := New(newZNS(t, store), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return l
}

func TestNewValidation(t *testing.T) {
	dev := newZNS(t, false)
	if _, err := New(dev, Config{RegionSize: 1000}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unaligned region err = %v", err)
	}
	if _, err := New(dev, Config{RegionSize: 3 * device.SectorSize}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("non-dividing region err = %v", err)
	}
	if _, err := New(dev, Config{RegionSize: device.SectorSize}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bitmap overflow (128 rpz) err = %v", err)
	}
	if _, err := New(dev, Config{RegionSize: testRegion, NumRegions: 100000}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("overcommit err = %v", err)
	}
	if _, err := New(dev, Config{RegionSize: testRegion, OpenZones: 100}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("open zones above device cap err = %v", err)
	}
}

func TestDefaultCapacityLeavesOP(t *testing.T) {
	l := newLayer(t, false)
	totalRegions := l.Device().NumZones() * l.regionsPerZone
	if l.NumRegions() >= totalRegions {
		t.Fatalf("NumRegions %d leaves no OP (device holds %d)", l.NumRegions(), totalRegions)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	l := newLayer(t, true)
	want := bytes.Repeat([]byte{0x55}, testRegion)
	if _, err := l.WriteRegion(0, 7, want); err != nil {
		t.Fatalf("WriteRegion: %v", err)
	}
	got := make([]byte, device.SectorSize)
	if _, err := l.ReadRegion(0, 7, got, len(got), device.SectorSize); err != nil {
		t.Fatalf("ReadRegion: %v", err)
	}
	if !bytes.Equal(got, want[device.SectorSize:2*device.SectorSize]) {
		t.Fatal("round-trip mismatch")
	}
}

func TestReadUnmappedFails(t *testing.T) {
	l := newLayer(t, false)
	if _, err := l.ReadRegion(0, 3, nil, device.SectorSize, 0); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("unmapped read err = %v", err)
	}
}

func TestRewriteRelocatesRegion(t *testing.T) {
	l := newLayer(t, true)
	a := bytes.Repeat([]byte{1}, testRegion)
	b := bytes.Repeat([]byte{2}, testRegion)
	l.WriteRegion(0, 0, a)
	m1 := l.mapTable[0]
	l.WriteRegion(0, 0, b)
	m2 := l.mapTable[0]
	if m1 == m2 {
		t.Fatal("rewrite did not move the region (zones are append-only)")
	}
	got := make([]byte, device.SectorSize)
	l.ReadRegion(0, 0, got, len(got), 0)
	if !bytes.Equal(got, b[:device.SectorSize]) {
		t.Fatal("stale data after rewrite")
	}
	if l.MappedRegions() != 1 {
		t.Fatalf("MappedRegions = %d, want 1", l.MappedRegions())
	}
}

func TestEvictIsMetadataOnly(t *testing.T) {
	l := newLayer(t, false)
	l.WriteRegion(0, 0, nil)
	resets := l.Device().(*zns.Device).Resets.Load()
	lat, err := l.EvictRegion(0, 0)
	if err != nil || lat != 0 {
		t.Fatalf("EvictRegion = (%v, %v)", lat, err)
	}
	if l.MappedRegions() != 0 {
		t.Fatal("mapping survived eviction")
	}
	if l.Device().(*zns.Device).Resets.Load() != resets {
		t.Fatal("eviction touched the device")
	}
}

func TestMultipleOpenZones(t *testing.T) {
	l := newLayer(t, false, func(c *Config) { c.OpenZones = 4 })
	// Write a handful of regions; they must spread across several zones.
	for id := 0; id < 8; id++ {
		if _, err := l.WriteRegion(0, id, nil); err != nil {
			t.Fatal(err)
		}
	}
	zonesUsed := map[int]bool{}
	for _, m := range l.mapTable {
		zonesUsed[m.zone] = true
	}
	if len(zonesUsed) < 2 {
		t.Fatalf("writes landed in %d zone(s), want spread over several", len(zonesUsed))
	}
}

// churn drives region overwrites until GC has run at least once.
func churn(t *testing.T, l *Layer, rounds int) {
	t.Helper()
	rng := sim.NewRand(3)
	n := l.NumRegions()
	for i := 0; i < n*rounds; i++ {
		id := rng.Intn(n)
		if _, err := l.WriteRegion(0, id, nil); err != nil {
			t.Fatalf("churn write %d: %v", i, err)
		}
	}
}

func TestGCReclaimsZones(t *testing.T) {
	l := newLayer(t, false)
	churn(t, l, 4)
	if l.GCRuns.Load() == 0 {
		t.Fatal("GC never ran under churn")
	}
	if l.EmptyZones() == 0 {
		t.Fatal("GC failed to maintain empty zones")
	}
	if l.Resets.Load() == 0 {
		t.Fatal("no zone resets recorded")
	}
}

func TestGCWAAboveOneUnderChurn(t *testing.T) {
	l := newLayer(t, false)
	churn(t, l, 5)
	if wa := l.WA.Factor(); wa <= 1.0 {
		t.Fatalf("WA factor = %v, want > 1 (migrations)", wa)
	}
}

func TestGCPreservesRegionContent(t *testing.T) {
	l := newLayer(t, true)
	keep := bytes.Repeat([]byte{0xAB}, testRegion)
	l.WriteRegion(0, 0, keep)
	// Churn all other regions so GC migrates region 0 at least once.
	rng := sim.NewRand(9)
	for i := 0; i < l.NumRegions()*5; i++ {
		id := 1 + rng.Intn(l.NumRegions()-1)
		if _, err := l.WriteRegion(0, id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if l.Migrated.Load() == 0 {
		t.Fatal("test vacuous: no migrations happened")
	}
	got := make([]byte, testRegion)
	if _, err := l.ReadRegion(0, 0, got, len(got), 0); err != nil {
		t.Fatalf("read after GC: %v", err)
	}
	if !bytes.Equal(got, keep) {
		t.Fatal("region content corrupted by GC")
	}
}

func TestMoreOPLowersWA(t *testing.T) {
	run := func(numRegions int) float64 {
		l, err := New(newZNS(t, false), Config{
			RegionSize: testRegion, OpenZones: 2, MinEmptyZones: 4,
			NumRegions: numRegions,
		})
		if err != nil {
			t.Fatal(err)
		}
		churn(t, l, 5)
		return l.WA.Factor()
	}
	total := 32 * 32 // zones × regions-per-zone
	tight := run(total * 85 / 100)
	loose := run(total * 60 / 100)
	if loose >= tight {
		t.Fatalf("WA with 40%% OP (%v) not below WA with 15%% OP (%v)", loose, tight)
	}
}

func TestCoDesignDropSkipsMigration(t *testing.T) {
	var dropped []int
	l := newLayer(t, false, func(c *Config) {
		c.DropFilter = func(int) bool { return true } // everything is cold
		c.OnDrop = func(id int) { dropped = append(dropped, id) }
	})
	churn(t, l, 4)
	if l.Dropped.Load() == 0 {
		t.Fatal("co-design filter never dropped a region")
	}
	if l.Migrated.Load() != 0 {
		t.Fatalf("migrations (%d) happened despite drop-all filter", l.Migrated.Load())
	}
	if len(dropped) == 0 {
		t.Fatal("OnDrop callback not invoked")
	}
	// With drop-all, WA stays at exactly 1: no migrated bytes.
	if wa := l.WA.Factor(); wa != 1.0 {
		t.Fatalf("WA = %v, want 1.0 with drop-all co-design", wa)
	}
}

func TestBitmapMatchesMappings(t *testing.T) {
	// Invariant: per-zone bitmap popcount == live mappings into that zone.
	if err := quick.Check(func(ops []uint16) bool {
		l, err := New(newZNS(t, false), Config{
			RegionSize: testRegion, OpenZones: 2, MinEmptyZones: 3,
		})
		if err != nil {
			return false
		}
		n := l.NumRegions()
		for _, op := range ops {
			id := int(op) % n
			if op%3 == 0 {
				l.EvictRegion(0, id)
			} else if _, err := l.WriteRegion(0, id, nil); err != nil {
				return false
			}
		}
		counts := make(map[int]int)
		for _, m := range l.mapTable {
			counts[m.zone]++
		}
		for z := range l.zones {
			pop := 0
			for s := 0; s < l.regionsPerZone; s++ {
				if l.zones[z].bitmap&(1<<uint(s)) != 0 {
					pop++
				}
			}
			if pop != counts[z] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEveryLiveRegionHasOneMapping(t *testing.T) {
	l := newLayer(t, false)
	churn(t, l, 3)
	// Each mapped region must point at a slot that references it back.
	for id, m := range l.mapTable {
		if l.zones[m.zone].regions[m.slot] != id {
			t.Fatalf("mapping inconsistency: region %d -> %+v but slot holds %d",
				id, m, l.zones[m.zone].regions[m.slot])
		}
	}
}
