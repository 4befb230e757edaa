package cache

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// checkBufBound fails the test when a region other than the open and the
// flushing ones holds a buffer, or when the engine holds or has allocated
// (held plus spare) more region buffers than its BufferMemory affords. It
// returns how many buffers are held.
func checkBufBound(t *testing.T, c *Cache, when string) int {
	t.Helper()
	held := 0
	for i := range c.regions {
		m := &c.regions[i]
		if m.buf == nil {
			continue
		}
		held++
		if m.state != regionOpen && m.state != regionFlushing {
			t.Fatalf("%s: region %d holds a buffer in state %d", when, i, m.state)
		}
	}
	limit := int(c.cfg.BufferMemory / c.store.RegionSize())
	if total := held + len(c.spareBufs); held > limit || total > limit {
		t.Fatalf("%s: %d region buffers held, %d allocated; BufferMemory affords %d", when, held, total, limit)
	}
	return held
}

// TestRegionBufferAllocsBoundedByBufferMemory drives rolls, evictions, a flush
// that exhausts its retries (quarantining its region), and a Snapshot /
// Restore cycle, checking after every step that only the open and flushing
// regions hold buffers and that no more than BufferMemory/RegionSize exist.
func TestRegionBufferAllocsBoundedByBufferMemory(t *testing.T) {
	const regionSize = 4096
	fs := &flakyStore{memStore: newMemStore(16, regionSize)}
	fs.writeLat = time.Second // flushes stay in flight until the pipeline fills
	cfg := Config{
		Store: fs, TrackValues: true, BufferMemory: 3 * regionSize,
		MaxRetries: 1, RetryBackoff: time.Microsecond, QuarantineAfter: 1,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkBufBound(t, c, "New")
	set := func(c *Cache, i int) {
		t.Helper()
		if err := c.Set(fmt.Sprintf("k%05d", i), bytes.Repeat([]byte{byte(i)}, 700), 0); err != nil {
			t.Fatalf("Set %d: %v", i, err)
		}
		checkBufBound(t, c, fmt.Sprintf("after set %d", i))
	}
	for i := 0; i < 200; i++ {
		if i == 100 {
			fs.failWrites = 2 // the next flush exhausts its retries
		}
		set(c, i)
	}
	st := c.Stats()
	if st.Evictions == 0 || st.Quarantined == 0 {
		t.Fatalf("test vacuous: %d evictions, %d quarantined", st.Evictions, st.Quarantined)
	}

	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	checkBufBound(t, r, "Restore")
	if r.regions[r.open].buf == nil {
		t.Fatal("restored open region has no buffer")
	}
	for i := 200; i < 300; i++ {
		set(r, i)
	}
	r.Drain()
	if held := checkBufBound(t, r, "Drain"); held != 1 {
		t.Fatalf("after Drain %d regions hold buffers, want only the open one", held)
	}
}

// TestFlushingRegionReadsOwnBytes: a Get on a still-flushing region is served
// from its in-flight buffer, so a buffer recycled to another region while
// that flush is pending would corrupt it. Every key is read back after every
// set while regions roll through a three-deep flush pipeline.
func TestFlushingRegionReadsOwnBytes(t *testing.T) {
	const regionSize = 4096
	st := newMemStore(12, regionSize)
	st.writeLat = time.Second
	c, err := New(Config{Store: st, TrackValues: true, BufferMemory: 4 * regionSize})
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string][]byte{}
	flushingReads := 0
	for i := 0; i < 150; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v := bytes.Repeat([]byte{byte(i*7 + 1)}, 300+i%5*97)
		vals[k] = v
		if err := c.Set(k, v, 0); err != nil {
			t.Fatal(err)
		}
		for k, want := range vals {
			e, indexed := c.index[k]
			if !indexed {
				delete(vals, k) // evicted
				continue
			}
			if c.regions[e.region].state == regionFlushing {
				flushingReads++
			}
			got, ok, err := c.Get(k)
			if err != nil || !ok {
				t.Fatalf("set %d: Get(%s) = (%v, %v)", i, k, ok, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("set %d: key %s (region %d, state %d) read another region's bytes",
					i, k, e.region, c.regions[e.region].state)
			}
		}
	}
	if flushingReads == 0 || c.Stats().Evictions == 0 {
		t.Fatalf("test vacuous: %d flushing-region reads, %d evictions", flushingReads, c.Stats().Evictions)
	}
}
