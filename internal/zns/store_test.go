package zns

import (
	"bytes"
	"testing"

	"znscache/internal/device"
)

func TestMetadataWriteAfterResetReadsZeros(t *testing.T) {
	d := newTestDev(t)
	zs := int(d.ZoneSize())
	if _, err := d.Write(0, bytes.Repeat([]byte{0x5A}, zs), zs, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Reset(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(0, nil, zs, 0); err != nil {
		t.Fatal(err)
	}
	got := bytes.Repeat([]byte{0xEE}, zs)
	if _, err := d.Read(0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, zs)) {
		t.Fatal("metadata-only rewrite of a reset zone read back stale bytes")
	}
}

func TestSealedReadAllocatesNothing(t *testing.T) {
	d := newTestDev(t)
	zs := int(d.ZoneSize())
	want := bytes.Repeat([]byte{0x3C}, zs)
	if _, err := d.Write(0, want, zs, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, zs)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.Read(0, got, 0); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("sealed zone Read: %v allocations, want 0", allocs)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sealed zone read mismatch")
	}
}

// BenchmarkZNSWriteRead fills a zone, reads it back, and resets it: the
// region flush, read and GC reclaim path of the middle layer.
func BenchmarkZNSWriteRead(b *testing.B) {
	for _, store := range []bool{true, false} {
		name := "meta"
		if store {
			name = "store"
		}
		b.Run(name, func(b *testing.B) {
			cfg := testConfig()
			cfg.StoreData = store
			d, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			zs := int(d.ZoneSize())
			src := bytes.Repeat([]byte{1}, zs)
			if !store {
				src = nil
			}
			dst := make([]byte, device.SectorSize*16)
			b.ReportAllocs()
			b.SetBytes(int64(zs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				z := i % d.NumZones()
				if _, err := d.Write(0, src, zs, int64(z)*int64(zs)); err != nil {
					b.Fatal(err)
				}
				for off := 0; off < zs; off += len(dst) {
					if _, err := d.Read(0, dst, int64(z*zs+off)); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := d.Reset(0, z); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
