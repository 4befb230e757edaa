package main

import (
	"fmt"
	"time"

	"znscache/internal/cache"
	"znscache/internal/f2fs"
	"znscache/internal/flash"
	"znscache/internal/harness"
	"znscache/internal/middle"
	"znscache/internal/server"
	"znscache/internal/sim"
	"znscache/internal/ssd"
	"znscache/internal/store"
	"znscache/internal/zns"
)

// assemble builds the scheme harness.Build builds for cfg, with lane's
// timing decorators between the engine and its cache.RegionStore and
// between the store and its zns.Zoned device. harness.Build offers no seam
// at zns.Zoned, so this re-derives its assembly for the fault-free,
// trace-free configurations the benchmark uses; TestTracedStackMatchesBuild
// holds the two equal on simulated counters.
func assemble(cfg harness.RigConfig, ln *lane) (*harness.Rig, error) {
	if cfg.OPRatio == 0 {
		cfg.OPRatio = 0.20
	}
	if cfg.RegionBytes == 0 {
		cfg.RegionBytes = 256 << 10
	}
	if cfg.BufferMemory == 0 {
		cfg.BufferMemory = 16 << 20
	}
	if cfg.Clock == nil {
		cfg.Clock = sim.NewClock()
	}
	if !cfg.PolicySet {
		cfg.Policy = cache.FIFO
	}
	if cfg.Faults != nil || cfg.Trace != nil || cfg.CoDesign || cfg.Admission != nil {
		return nil, fmt.Errorf("assemble: faults, event tracing, co-design and admission instances are not re-derived")
	}
	geo := cfg.HW.Geometry()
	zones := geo.Blocks() / cfg.HW.BlocksPerZone
	timing := flash.DefaultTiming()
	rig := &harness.Rig{Scheme: cfg.Scheme, Clock: cfg.Clock}
	zoned := func(dev *zns.Device) zns.Zoned { return &tracedZoned{Zoned: dev, lane: ln} }
	newZNS := func() (*zns.Device, error) {
		return zns.New(zns.Config{
			Geometry: geo, Timing: timing, BlocksPerZone: cfg.HW.BlocksPerZone,
			StoreData: cfg.TrackValues, MaxOpenZones: cfg.MaxOpenZones, MaxActiveZones: cfg.MaxActiveZones,
		})
	}

	var st cache.RegionStore
	switch cfg.Scheme {
	case harness.BlockCache:
		dev, err := ssd.New(ssd.Config{Geometry: geo, Timing: timing, OPRatio: cfg.OPRatio, StoreData: cfg.TrackValues})
		if err != nil {
			return nil, err
		}
		n := min(int(cfg.CacheBytes/cfg.RegionBytes), int(dev.Size()/cfg.RegionBytes))
		s, err := store.NewBlockStore(dev, cfg.RegionBytes, n)
		if err != nil {
			return nil, err
		}
		rig.SSD, st = dev, s

	case harness.FileCache:
		dev, err := newZNS()
		if err != nil {
			return nil, err
		}
		meta := cfg.FSMetaOverhead
		if !cfg.FSMetaOverheadSet {
			meta = 0.12
		}
		fs, err := f2fs.Mount(zoned(dev), f2fs.Config{OPRatio: cfg.OPRatio, MetaOverhead: meta})
		if err != nil {
			return nil, err
		}
		size := cfg.CacheBytes
		if size > fs.UsableBytes() {
			size = fs.UsableBytes() / cfg.RegionBytes * cfg.RegionBytes
		}
		file, err := fs.Create("cachelib", size)
		if err != nil {
			return nil, err
		}
		s, err := store.NewFileStore(file, cfg.RegionBytes, 0)
		if err != nil {
			return nil, err
		}
		rig.ZNS, rig.FS, st = dev, fs, s

	case harness.ZoneCache:
		dev, err := newZNS()
		if err != nil {
			return nil, err
		}
		n := cfg.ZoneCount
		if n == 0 {
			n = int(cfg.CacheBytes / dev.ZoneSize())
		}
		s, err := store.NewZoneStore(zoned(dev), n)
		if err != nil {
			return nil, err
		}
		rig.ZNS, st = dev, s

	case harness.RegionCache:
		dev, err := newZNS()
		if err != nil {
			return nil, err
		}
		// harness.Build's middle-layer sizing: open zones and the reclaim
		// watermark follow the slack beyond the live regions.
		rpz := int(cfg.HW.ZoneBytes() / cfg.RegionBytes)
		numRegions := int(cfg.CacheBytes / cfg.RegionBytes)
		slack := zones - (numRegions+rpz-1)/rpz
		open := 2
		if cfg.MiddleOpenZones > 0 {
			open = cfg.MiddleOpenZones
		}
		open = max(min(open, slack-1), 1)
		minEmpty := max(min(slack/2, 8), 2)
		numRegions = min(numRegions, (zones-open-1)*rpz)
		mid, err := middle.New(zoned(dev), middle.Config{
			RegionSize: cfg.RegionBytes, NumRegions: numRegions,
			OpenZones: open, MinEmptyZones: minEmpty,
		})
		if err != nil {
			return nil, err
		}
		rig.ZNS, rig.Middle, st = dev, mid, mid

	default:
		return nil, fmt.Errorf("assemble: unknown scheme %v", cfg.Scheme)
	}

	rig.Store = st
	eng, err := cache.New(cache.Config{
		Store:            &tracedStore{inner: st, lane: ln},
		Policy:           cfg.Policy,
		AdmissionFactory: cfg.AdmissionFactory,
		AdmissionSeed:    cfg.AdmissionSeed,
		BufferMemory:     cfg.BufferMemory,
		TrackValues:      cfg.TrackValues,
		ReadIndex:        cfg.ReadIndex,
		ReinsertHits:     cfg.ReinsertHits,
		Clock:            cfg.Clock,
		Spans:            cfg.Spans,
	})
	if err != nil {
		return nil, err
	}
	rig.Engine = eng
	return rig, nil
}

// tracedBackend is the serving stack's server.Backend over per-shard
// decorated rigs. Every method mirrors cache.Sharded's own (lock-free read
// index first for gets, the shard write lock otherwise), with a span around
// the call and around the engine work inside the lock.
type tracedBackend struct {
	sh    *cache.Sharded
	t     *tracer
	lanes []*lane
}

var (
	_ server.ShardedBackend = (*tracedBackend)(nil)
	_ server.ShardClocked   = (*tracedBackend)(nil)
)

func (b *tracedBackend) NumShards() int          { return b.sh.NumShards() }
func (b *tracedBackend) ShardFor(key string) int { return b.sh.ShardFor(key) }
func (b *tracedBackend) Len() int                { return b.sh.Len() }

func (b *tracedBackend) ShardNow(key string) time.Duration {
	return b.sh.Shard(b.sh.ShardFor(key)).Clock().Now()
}

// locked runs fn under shard i's lock inside a cache.exec span whose parent
// is id, and returns the span's wall duration.
func (b *tracedBackend) locked(i int, id uint64, fn func(*cache.Cache)) (child int64) {
	b.sh.WithShard(i, func(c *cache.Cache) {
		ln := b.lanes[i]
		ln.push(spCacheExec, id, id)
		fn(c)
		child = ln.pop(0, 0)
	})
	return child
}

// call wraps one Backend call in a root span of kind k.
func (b *tracedBackend) call(k spanKind, key string, fn func(c *cache.Cache)) {
	i := b.sh.ShardFor(key)
	if !b.t.on.Load() {
		b.sh.WithShard(i, fn)
		return
	}
	id := b.t.ids.Add(1)
	start := b.t.now()
	child := b.locked(i, id, fn)
	b.t.record(span{id: id, op: id, kind: k, start: start, end: b.t.now()}, child, 0, false)
}

func (b *tracedBackend) Get(key string) (val []byte, found bool, err error) {
	if !b.t.on.Load() {
		return b.sh.Get(key)
	}
	id := b.t.ids.Add(1)
	start := b.t.now()
	i := b.sh.ShardFor(key)
	var child int64
	var done bool
	if val, found, done = b.sh.Shard(i).TryFastGet(key); !done {
		child = b.locked(i, id, func(c *cache.Cache) { val, found, err = c.Get(key) })
	}
	b.t.record(span{id: id, op: id, kind: spBackendGet, start: start, end: b.t.now()}, child, 0, false)
	return val, found, err
}

func (b *tracedBackend) Set(key string, value []byte) (err error) {
	b.call(spBackendSet, key, func(c *cache.Cache) { err = c.Set(key, value, 0) })
	return err
}

func (b *tracedBackend) SetWithTTL(key string, value []byte, ttl time.Duration) (err error) {
	b.call(spBackendSet, key, func(c *cache.Cache) { err = c.SetTTL(key, value, 0, ttl) })
	return err
}

func (b *tracedBackend) Delete(key string) (found bool) {
	b.call(spBackendDelete, key, func(c *cache.Cache) { found = c.Delete(key) })
	return found
}

// ExecShard records the lock wait (entry to fn start) and the engine work
// under the lock as separate spans.
func (b *tracedBackend) ExecShard(i int, fn func(*cache.Cache)) error {
	if !b.t.on.Load() {
		b.sh.WithShard(i, fn)
		return nil
	}
	id := b.t.ids.Add(1)
	start := b.t.now()
	var entered int64
	child := b.locked(i, id, func(c *cache.Cache) {
		entered = b.t.now()
		fn(c)
	})
	b.t.record(span{id: id, op: id, kind: spBackendExec, start: start, end: b.t.now()}, child, 0, false)
	b.t.mu.Lock()
	b.t.lockWait.add(time.Duration(entered - start))
	b.t.mu.Unlock()
	return nil
}
