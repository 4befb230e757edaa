package znscache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"znscache/internal/sim"
)

func TestOpenShardedValidation(t *testing.T) {
	if _, err := OpenSharded(ShardedConfig{Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := OpenSharded(ShardedConfig{Config: Config{Zones: 2}, Shards: 8}); err == nil {
		t.Fatal("more shards than zones accepted")
	}
}

func TestOpenShardedBasic(t *testing.T) {
	c, err := OpenSharded(ShardedConfig{
		Config: Config{Zones: 24, TrackValues: true},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.NumShards() != 4 {
		t.Fatalf("NumShards = %d", c.NumShards())
	}
	const keys = 500
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("user:%04d", i)
		if err := c.Set(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != keys {
		t.Fatalf("Len = %d, want %d", c.Len(), keys)
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("user:%04d", i)
		v, ok, err := c.Get(k)
		if err != nil || !ok || string(v) != k {
			t.Fatalf("Get(%s) = %q, %v, %v", k, v, ok, err)
		}
	}
	if !c.Delete("user:0000") || c.Contains("user:0000") {
		t.Fatal("delete through the sharded facade failed")
	}
	st := c.Stats()
	if st.Sets != keys || st.Hits != keys {
		t.Fatalf("merged stats Sets=%d Hits=%d, want %d each", st.Sets, st.Hits, keys)
	}
	if st.WriteAmplification < 1 {
		t.Fatalf("WA = %v < 1", st.WriteAmplification)
	}
	if c.SimulatedTime() <= 0 {
		t.Fatal("simulated time did not advance")
	}
}

func TestOpenShardedTTLThroughFacade(t *testing.T) {
	c, err := OpenSharded(ShardedConfig{Config: Config{Zones: 8}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetWithTTL("ephemeral", nil, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if !c.Contains("ephemeral") {
		t.Fatal("item absent before TTL")
	}
	// Advance every shard clock past the TTL (the key's shard owns the
	// deadline, but advancing all is simplest and exercises independence).
	for i := 0; i < c.NumShards(); i++ {
		c.Rig(i).Clock.Advance(5 * time.Second)
	}
	if c.Contains("ephemeral") {
		t.Fatal("Contains sees a TTL-expired item through the sharded facade")
	}
	if _, ok, _ := c.Get("ephemeral"); ok {
		t.Fatal("Get sees a TTL-expired item")
	}
}

// TestShardedDeleteContains pins the facade-level semantics of Delete and
// Contains on the sharded cache: present, absent, re-set, and deleted keys,
// with keys spread over every shard so the per-shard routing is exercised,
// not just one engine.
func TestShardedDeleteContains(t *testing.T) {
	c, err := OpenSharded(ShardedConfig{
		Config: Config{Zones: 16, TrackValues: true},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	// Pick one key per shard so every engine sees each path.
	keys := make([]string, c.NumShards())
	filled := 0
	for i := 0; filled < len(keys); i++ {
		k := fmt.Sprintf("dc:%04d", i)
		if keys[c.ShardFor(k)] == "" {
			keys[c.ShardFor(k)] = k
			filled++
		}
	}
	for _, k := range keys {
		if c.Contains(k) {
			t.Fatalf("Contains(%q) true before Set", k)
		}
		if c.Delete(k) {
			t.Fatalf("Delete(%q) true before Set", k)
		}
		if err := c.Set(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
		if !c.Contains(k) {
			t.Fatalf("Contains(%q) false after Set", k)
		}
		if !c.Delete(k) {
			t.Fatalf("Delete(%q) false for a present key", k)
		}
		if c.Contains(k) {
			t.Fatalf("Contains(%q) true after Delete", k)
		}
		if c.Delete(k) {
			t.Fatalf("second Delete(%q) returned true", k)
		}
		// A re-set key is fully alive again.
		if err := c.Set(k, []byte("again")); err != nil {
			t.Fatal(err)
		}
		if !c.Contains(k) {
			t.Fatalf("Contains(%q) false after re-Set", k)
		}
	}
	if st := c.Stats(); st.Deletes == 0 {
		t.Fatal("merged stats recorded no deletes")
	}
}

// TestShardedContainsTTLExpiry covers the TTL paths of Contains and Delete
// through the sharded facade, advancing only the owning shard's simulated
// clock: expiry is a per-shard-clock fact, and the other shards' items must
// be unaffected.
func TestShardedContainsTTLExpiry(t *testing.T) {
	c, err := OpenSharded(ShardedConfig{Config: Config{Zones: 16}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	const victim = "ttl:victim"
	const bystander = "ttl:bystander-on-another-shard"
	if c.ShardFor(victim) == c.ShardFor(bystander) {
		t.Fatalf("test keys landed on the same shard %d; pick different keys", c.ShardFor(victim))
	}
	if err := c.SetWithTTL(victim, nil, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWithTTL(bystander, nil, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(victim) || !c.Contains(bystander) {
		t.Fatal("items absent before TTL")
	}

	// Advance only the victim's shard clock past the TTL.
	c.Rig(c.ShardFor(victim)).Clock.Advance(5 * time.Second)
	if c.Contains(victim) {
		t.Fatal("Contains sees a TTL-expired item")
	}
	if !c.Contains(bystander) {
		t.Fatal("expiry on one shard clock leaked into another shard")
	}
	// Contains lazily removed the expired entry, so Delete now misses.
	if c.Delete(victim) {
		t.Fatal("Delete found a key Contains already expired")
	}
	st := c.Stats()
	if want := c.Len(); want != 1 {
		t.Fatalf("Len = %d after expiry, want 1", want)
	}
	_ = st
}

// TestShardedCloseReopen is the warm-roll contract: Close snapshots every
// shard, Reopen rebuilds the engines over the same simulated devices, and
// the reopened cache serves the pre-shutdown contents. Open's one-shard
// cache keeps the same contract.
func TestShardedCloseReopen(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func() (*ShardedCache, error)
	}{
		{"two-shards", func() (*ShardedCache, error) {
			return OpenSharded(ShardedConfig{Config: Config{Zones: 8, TrackValues: true}, Shards: 2})
		}},
		{"open", func() (*ShardedCache, error) {
			return Open(Config{Zones: 8, TrackValues: true})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			testCloseReopen(t, c)
		})
	}
}

func testCloseReopen(t *testing.T, c *ShardedCache) {
	const keys = 64
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("persist:%03d", i)
		if err := c.Set(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	before := c.Len()

	if _, err := c.Reopen(); err == nil {
		t.Fatal("Reopen succeeded on an open cache")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := len(c.Snapshots()); got != c.NumShards() {
		t.Fatalf("Snapshots count = %d, want %d", got, c.NumShards())
	}
	if err := c.Set("late", []byte("x")); err != ErrClosed {
		t.Fatalf("Set after Close = %v, want ErrClosed", err)
	}

	r, err := c.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Len(); got != before {
		t.Fatalf("reopened Len = %d, want %d", got, before)
	}
	hits := 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("persist:%03d", i)
		v, ok, err := r.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			hits++
			if string(v) != k {
				t.Fatalf("reopened Get(%q) = %q", k, v)
			}
		}
	}
	// Sealed regions survive; only the open region's DRAM buffer may drop.
	if hits < keys/2 {
		t.Fatalf("only %d/%d keys survived the warm roll", hits, keys)
	}
	// The reopened cache keeps serving writes.
	if err := r.Set("after-roll", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := r.Get("after-roll"); !ok {
		t.Fatal("reopened cache dropped a fresh write")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenKeepsBuildEngineConfig checks that Reopen rebuilds each engine
// from the configuration Build made it from rather than the engine
// defaults: the reopened engine keeps Build's region-buffer budget, so a
// burst of sets fills exactly as many buffers before it would stall on the
// flush pipeline as the fresh engine did.
func TestReopenKeepsBuildEngineConfig(t *testing.T) {
	setsUntilStall := func(c *ShardedCache, prefix string) int {
		eng := c.Rig(0).Engine
		n := 0
		for ; n < 10_000 && !eng.WouldBlock(16, 64<<10); n++ {
			if err := c.SetSized(fmt.Sprintf("%s:%05d", prefix, n), 64<<10); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	for _, s := range []Scheme{RegionCache, BlockCache} {
		c, err := OpenSharded(ShardedConfig{Config: Config{Scheme: s, Zones: 24}, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		fresh := setsUntilStall(c, "fresh")
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := c.Reopen()
		if err != nil {
			t.Fatal(err)
		}
		if got := setsUntilStall(r, "reopened"); got != fresh {
			t.Fatalf("%v: reopened engine buffered %d sets before stalling, fresh engine %d",
				s, got, fresh)
		}
	}
}

// replayFacade drives a seeded mixed workload with one goroutine per shard,
// each applying only its shard's slice of the stream.
func replayFacade(t *testing.T, c *ShardedCache, seed uint64, ops int) Stats {
	t.Helper()
	var wg sync.WaitGroup
	for shard := 0; shard < c.NumShards(); shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			rng := sim.NewRand(seed)
			for i := 0; i < ops; i++ {
				kind := rng.Intn(10)
				k := fmt.Sprintf("obj:%05d", rng.Intn(3000))
				if c.ShardFor(k) != shard {
					continue
				}
				switch kind {
				case 0:
					c.Delete(k)
				case 1, 2, 3:
					if err := c.SetSized(k, 8192); err != nil {
						t.Errorf("Set: %v", err)
						return
					}
				default:
					if _, _, err := c.Get(k); err != nil {
						t.Errorf("Get: %v", err)
						return
					}
				}
			}
		}(shard)
	}
	wg.Wait()
	c.Drain()
	return c.Stats()
}

// TestOpenShardedDeterminism is the facade-level acceptance check: same
// seed, same shard count, concurrent replay — identical merged stats.
func TestOpenShardedDeterminism(t *testing.T) {
	build := func() *ShardedCache {
		// Cache smaller than the 3000-key working set so eviction and zone
		// GC run during the replay, not just the fill path.
		c, err := OpenSharded(ShardedConfig{
			Config: Config{Zones: 16, CacheBytes: 16 << 20},
			Shards: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a := replayFacade(t, build(), 99, 30_000)
	b := replayFacade(t, build(), 99, 30_000)
	if a != b {
		t.Fatalf("same-seed runs diverged:\n  run1: %+v\n  run2: %+v", a, b)
	}
	if a.Evictions == 0 {
		t.Fatal("replay produced no evictions; shrink the cache so the test covers eviction")
	}
}
