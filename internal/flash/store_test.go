package flash

import (
	"bytes"
	"errors"
	"testing"
)

// fill returns one test page of byte b.
func fill(b byte) []byte { return bytes.Repeat([]byte{b}, testGeo().PageSize) }

func readPage(t *testing.T, a *Array, addr Addr) []byte {
	t.Helper()
	got := fill(0xEE) // poison: a read must overwrite every byte
	if _, err := a.Read(0, addr, got); err != nil {
		t.Fatalf("Read(%v): %v", addr, err)
	}
	return got
}

func TestMetadataProgramAfterEraseReadsZeros(t *testing.T) {
	a := newTestArray(t, true)
	for p := 0; p < 8; p++ {
		if _, err := a.Program(0, Addr{Block: 1, Page: p}, fill(0xAB)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Erase(0, 1); err != nil {
		t.Fatal(err)
	}
	// Another block now reuses the erased pages' buffers.
	if _, err := a.Program(0, Addr{Block: 2, Page: 0}, fill(0xCD)); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		if _, err := a.Program(0, Addr{Block: 1, Page: p}, nil); err != nil {
			t.Fatal(err)
		}
		if got := readPage(t, a, Addr{Block: 1, Page: p}); !bytes.Equal(got, make([]byte, len(got))) {
			t.Fatalf("page %d: metadata-only program read back stale bytes %x...", p, got[:4])
		}
	}
	if got := readPage(t, a, Addr{Block: 2, Page: 0}); !bytes.Equal(got, fill(0xCD)) {
		t.Fatal("recycled buffer lost its new content")
	}
}

func TestReprogramAfterEraseReadsNewData(t *testing.T) {
	a := newTestArray(t, true)
	addr := Addr{Block: 3, Page: 0}
	for round := byte(1); round <= 3; round++ {
		if _, err := a.Program(0, addr, fill(round)); err != nil {
			t.Fatal(err)
		}
		if got := readPage(t, a, addr); !bytes.Equal(got, fill(round)) {
			t.Fatalf("round %d: read %x..., want %x", round, got[:4], round)
		}
		if _, err := a.Erase(0, addr.Block); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReadDestinationContract(t *testing.T) {
	a := newTestArray(t, true)
	addr := Addr{Block: 0, Page: 0}
	if _, err := a.Program(0, addr, fill(7)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 511, 513, 1024} {
		if _, err := a.Read(0, addr, make([]byte, n)); !errors.Is(err, ErrDataSize) {
			t.Errorf("Read into %d-byte dst: err = %v, want ErrDataSize", n, err)
		}
	}
	if a.Reads.Load() != 0 {
		t.Fatalf("rejected reads were counted: %d", a.Reads.Load())
	}
	// A nil dst is a timing-only read: counted, and it occupies the die.
	const now = 1000000
	done, err := a.Read(now, addr, nil)
	if err != nil {
		t.Fatalf("timing-only Read: %v", err)
	}
	tm := DefaultTiming()
	if done < now+tm.Transfer+tm.ReadPage {
		t.Fatalf("timing-only read completed at %v, want ≥ %v", done, now+tm.Transfer+tm.ReadPage)
	}
	if a.Reads.Load() != 1 {
		t.Fatalf("Reads = %d, want 1", a.Reads.Load())
	}
	again, _ := a.Read(now, addr, make([]byte, 512))
	if again < done+tm.ReadPage {
		t.Fatalf("second read on the same die did not queue behind the first: %v then %v", done, again)
	}
}

// cycleBlock programs every page of block b, reads each back into dst and
// erases the block: one steady-state round of the payload path.
func cycleBlock(a *Array, b int, page, dst []byte) {
	for p := 0; p < a.geo.PagesPerBlock; p++ {
		if _, err := a.Program(0, Addr{Block: b, Page: p}, page); err != nil {
			panic(err)
		}
	}
	for p := 0; p < a.geo.PagesPerBlock; p++ {
		if _, err := a.Read(0, Addr{Block: b, Page: p}, dst); err != nil {
			panic(err)
		}
	}
	if _, err := a.Erase(0, b); err != nil {
		panic(err)
	}
}

func TestSteadyStateCycleAllocatesNothing(t *testing.T) {
	for _, store := range []bool{true, false} {
		a := newTestArray(t, store)
		page, dst := fill(9), make([]byte, 512)
		for b := 0; b < a.geo.Blocks(); b++ {
			cycleBlock(a, b, page, dst) // warm: page buffers and free list
		}
		b := 0
		allocs := testing.AllocsPerRun(50, func() {
			cycleBlock(a, b, page, dst)
			b = (b + 1) % a.geo.Blocks()
		})
		if allocs != 0 {
			t.Errorf("storeData=%v: %v allocations per program/read/erase cycle, want 0", store, allocs)
		}
	}
}

func BenchmarkFlashProgramRead(b *testing.B) {
	geo := Geometry{Channels: 8, DiesPerChan: 2, BlocksPerDie: 4, PagesPerBlock: 256, PageSize: 4096}
	for _, store := range []bool{true, false} {
		name := "meta"
		if store {
			name = "store"
		}
		b.Run(name, func(b *testing.B) {
			a, err := NewArray(geo, DefaultTiming(), store)
			if err != nil {
				b.Fatal(err)
			}
			page, dst := bytes.Repeat([]byte{1}, geo.PageSize), make([]byte, geo.PageSize)
			b.ReportAllocs()
			b.SetBytes(int64(geo.BlockBytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycleBlock(a, i%geo.Blocks(), page, dst)
			}
		})
	}
}
