package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"znscache"
	"znscache/internal/cache"
	"znscache/internal/harness"
	"znscache/internal/obs"
	"znscache/internal/server"
	"znscache/internal/workload"
)

// serveParams describes one serving workload: the Region-Cache stack behind
// a memcached server on loopback, and the op mix the client sends.
type serveParams struct {
	shards, zonesPerShard, zoneMiB int
	getPct, setPct, delPct         int
	sizes, weights                 []int
	// keys sizes the key space; for the bc mix it is about twice the cache.
	keys int64
	// openRate is the traced run's open-loop offered load in ops/s, frozen
	// well below the closed-loop capacity measured on the seed commit (see
	// NOTES.md).
	openRate float64
	// hot marks the workload whose working set fits in the cache: its
	// warm-up loads every key once and its window must see no migrations.
	hot bool
}

const (
	serveConns    = 2    // at most nproc connections
	servePipeline = 32   // requests per closed-loop Exchange
	serveSetups   = 1001 // set-ups per run; setup_s is their median
	// warmInterval is the warm-up's gate interval in ops per shard.
	warmInterval = 20_000
	// probeOps is the length in ops per shard of the interval after the
	// warm-up whose simulated latencies and throughput are reported.
	probeOps = 300_000
	// warmCapacities is how many times its capacity a shard's device must
	// have absorbed before the migration plateau is trusted.
	warmCapacities = 8
	// warmMaxOps bounds the warm-up per shard; a stack that is not steady
	// by then makes the run invalid.
	warmMaxOps = 4_000_000
)

var serveWorkloads = map[string]serveParams{
	"serve-bc": {
		// 4 MiB zones: GC levels off within about 250k ops per shard; with
		// 16 MiB zones migrations were still rising after 1.6M (NOTES.md).
		shards: 2, zonesPerShard: 16, zoneMiB: 4,
		getPct: 50, setPct: 30, delPct: 20,
		sizes:    []int{512, 1024, 4096, 8192, 16384}, // the CacheBench bc sizes
		weights:  []int{25, 30, 30, 10, 5},
		openRate: 12_000,
	},
	"serve-hot": {
		// 16 MiB zones: a 15 s closed loop writes about 130 MB of 5% sets,
		// more than a 4 MiB-zone cache (102 MiB) holds before its log
		// wraps and GC starts migrating.
		shards: 2, zonesPerShard: 16, zoneMiB: 16,
		getPct: 95, setPct: 5,
		sizes:    []int{64, 128, 256, 512, 1024},
		weights:  []int{1, 1, 1, 1, 1},
		keys:     40_000,
		openRate: 40_000,
		hot:      true,
	},
}

// cacheBytes is the stack's total cache capacity (the facade's default:
// 80% of the device).
func (p serveParams) cacheBytes() int64 {
	return int64(p.shards*p.zonesPerShard*p.zoneMiB) << 20 * 8 / 10
}

func (p serveParams) meanSize() float64 {
	sum, wsum := 0, 0
	for i, s := range p.sizes {
		sum += s * p.weights[i]
		wsum += p.weights[i]
	}
	return float64(sum) / float64(wsum)
}

func (p serveParams) gen(seed uint64) *workload.BC {
	return workload.NewBC(workload.BCConfig{
		Keys: p.keys, GetPct: p.getPct, SetPct: p.setPct, DelPct: p.delPct,
		ValueSizes: p.sizes, ValueWeights: p.weights, Seed: seed,
	})
}

// facadeConfig is the configuration cmd/cacheserver builds its cache with,
// at this workload's geometry.
func (p serveParams) facadeConfig() znscache.ShardedConfig {
	return znscache.ShardedConfig{
		Config: znscache.Config{
			Scheme: znscache.RegionCache, Zones: p.shards * p.zonesPerShard, ZoneMiB: p.zoneMiB,
			TrackValues: true, FastReads: true,
		},
		Shards: p.shards,
	}
}

// rigConfig is the per-shard harness configuration znscache.OpenSharded
// derives from facadeConfig; the traced stack assembles it directly.
func (p serveParams) rigConfig(shard int) harness.RigConfig {
	hw := harness.DefaultHW(p.zonesPerShard)
	hw.BlocksPerZone = p.zoneMiB
	return harness.RigConfig{
		Scheme: harness.RegionCache, HW: hw,
		CacheBytes:    int64(p.zonesPerShard) * hw.ZoneBytes() * 8 / 10,
		TrackValues:   true,
		ReadIndex:     true,
		AdmissionSeed: cache.ShardSeed(0, shard),
	}
}

// stack is one running serving stack.
type stack struct {
	be   server.ShardedBackend
	rigs []*harness.Rig
	srvs []*server.Server
	errc chan error
	// stored is what the warm-up and the measured closed loops stored.
	stored storedSet
}

// serve starts a server over the stack's backend and returns its address.
func (s *stack) serve(spans *obs.SpanRecorder) (string, error) {
	srv, err := server.New(server.Config{Backend: s.be, Spans: spans})
	if err != nil {
		return "", err
	}
	s.srvs = append(s.srvs, srv)
	go func() { s.errc <- srv.Serve() }()
	return srv.Addr(), nil
}

// stop drains every server and waits for each Serve to return.
func (s *stack) stop() error {
	var first error
	for _, srv := range s.srvs {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
	}
	for range s.srvs {
		if err := <-s.errc; err != nil && first == nil {
			first = err
		}
	}
	s.srvs = nil
	return first
}

// openFacade builds the stack the way cmd/cacheserver does and serves it;
// it returns once a first request has been answered.
func openFacade(p serveParams) (*stack, string, error) {
	c, err := znscache.OpenSharded(p.facadeConfig())
	if err != nil {
		return nil, "", err
	}
	s := &stack{be: c, errc: make(chan error, 2)}
	for i := 0; i < c.NumShards(); i++ {
		s.rigs = append(s.rigs, c.Rig(i))
	}
	addr, err := s.serve(nil)
	if err != nil {
		return nil, "", err
	}
	cl, err := server.Dial(addr)
	if err != nil {
		return nil, "", err
	}
	defer cl.Close()
	if _, err := cl.Version(); err != nil {
		return nil, "", err
	}
	return s, addr, nil
}

// openTraced builds the same stack from decorated per-shard rigs.
func openTraced(p serveParams, t *tracer) (*stack, error) {
	s := &stack{errc: make(chan error, 2)}
	tb := &tracedBackend{t: t}
	engines := make([]*cache.Cache, p.shards)
	for i := range engines {
		ln := &lane{t: t}
		rig, err := assemble(p.rigConfig(i), ln)
		if err != nil {
			return nil, err
		}
		s.rigs = append(s.rigs, rig)
		tb.lanes = append(tb.lanes, ln)
		engines[i] = rig.Engine
	}
	sh, err := cache.NewSharded(engines)
	if err != nil {
		return nil, err
	}
	tb.sh = sh
	s.be = tb
	return s, nil
}

func runServe(cfg runConfig, r *result) error {
	p := serveWorkloads[cfg.workload]
	if p.keys == 0 {
		p.keys = int64(2 * float64(p.cacheBytes()) / p.meanSize())
	}
	if cfg.trace {
		return runServeTraced(cfg, p, r)
	}

	var st *stack
	var addr string
	setup, err := setupSeconds(serveSetups, func() error {
		if st != nil {
			if err := st.stop(); err != nil {
				return err
			}
		}
		st = nil
		return nil
	}, func() (err error) {
		st, addr, err = openFacade(p)
		return err
	})
	if err != nil {
		return err
	}
	r.set("setup_s", "s", setup)

	probe, err := warmServe(cfg.seed, p, st, r)
	if err != nil {
		return err
	}
	// Peak memory is read before the window: the simulated flash keeps every
	// written page in RAM, so a window that has not wrapped the log (serve-hot)
	// would grow it with the requests a fast host completes.
	rss := peakRSSMiB()
	runtime.GC() // the window starts from the same collector phase
	before, cpu0 := snapCounters(st.rigs), takeProcSnap()
	closed, err := closedLoop(addr, cfg.seed*1000+1, p, cfg.window, false)
	if err != nil {
		return err
	}
	after, cpu1 := snapCounters(st.rigs), takeProcSnap()
	if err := st.stop(); err != nil {
		return err
	}

	r.Attempted = closed.ops
	r.Failed = closed.failed
	r.set("cpu_us_per_op", "us", float64(cpu1.sub(cpu0).cpu)/1e3/float64(max(closed.ops, 1)))
	r.set("ops_per_s", "1/s", closed.medianRate())
	r.set("hit_ratio", "ratio", ratio(closed.hits, closed.gets))
	r.set("peak_rss_mib", "MiB", rss)
	w := after.sub(before)
	r.set("sim_waf", "x", w.waf())
	r.set("sim_ops_per_s", "1/s", probe.rate)
	fmt.Printf("window: %d migrations, %d evictions, %d GC runs\n", w.migrated, w.evictions, w.gcRuns)
	st.stored.merge(&closed.stored)
	checkServeWindow(p, st.rigs, w, &st.stored, r)
	return nil
}

// runServeTraced is the traced run: the same warm-up over decorated rigs,
// then, a quarter of the run each, an untraced closed-loop window (the
// baseline for the tracing overhead), the same window with every decorator
// on and the server's stage spans sampled 1-in-1 (the span and counter
// metrics), an untraced closed-loop window whose connection goroutines are
// locked to their threads (the client's own CPU; locking slows the loop, so
// it is kept out of the overhead baseline), and an untraced open-loop
// window at the workload's fixed rate (the client latencies).
func runServeTraced(cfg runConfig, p serveParams, r *result) error {
	t := newTracer()
	st, err := openTraced(p, t)
	if err != nil {
		return err
	}
	t0 := time.Now()
	probe, err := warmServe(cfg.seed, p, st, r)
	if err != nil {
		return err
	}
	probe.report(r)
	r.set("client.warmup_s", "s", time.Since(t0).Seconds())
	plainAddr, err := st.serve(nil)
	if err != nil {
		return err
	}
	spans := obs.NewSpanRecorder(obs.SpanConfig{SampleEvery: 1, SlowThreshold: -1})
	tracedAddr, err := st.serve(spans)
	if err != nil {
		return err
	}

	quarter := cfg.window / 4
	plain, err := closedLoop(plainAddr, cfg.seed*1000+1, p, quarter, false)
	if err != nil {
		return err
	}
	t.reset()
	t.on.Store(true)
	before, pb := snapCounters(st.rigs), takeProcSnap()
	closed, err := closedLoop(tracedAddr, cfg.seed*1000+2, p, quarter, false)
	if err != nil {
		return err
	}
	after, pa := snapCounters(st.rigs), takeProcSnap()
	t.on.Store(false)
	c0 := takeProcSnap()
	client, err := closedLoop(plainAddr, cfg.seed*1000+4, p, quarter, true)
	if err != nil {
		return err
	}
	reportClientCPU(r, client.clientCPU, takeProcSnap().sub(c0).cpu, client.ops)
	open, err := openLoop(plainAddr, cfg.seed*1000+3, p, cfg.window-3*quarter)
	if err != nil {
		return err
	}
	if err := st.stop(); err != nil {
		return err
	}

	r.Attempted = plain.ops + closed.ops + client.ops + open.ops
	r.Failed = plain.failed + closed.failed + client.failed + open.failed
	w := after.sub(before)
	untraced := float64(plain.ops) / plain.elapsed.Seconds()
	traced := float64(closed.ops) / closed.elapsed.Seconds()
	r.set("trace.ops_per_s_untraced", "1/s", untraced)
	r.set("trace.ops_per_s_traced", "1/s", traced)
	r.set("trace.overhead_frac", "ratio", 1-traced/untraced)
	closed.rtt.report(r, "client.batch_rtt_us.p50", 0.50)
	closed.rtt.report(r, "client.batch_rtt_us.p99", 0.99)
	open.late.report(r, "client.gen_late_us.p99", 0.99)
	open.get.report(r, "client.get_p50_us", 0.50)
	open.get.report(r, "client.get_p99_us", 0.99)
	open.set.report(r, "client.set_p99_us", 0.99)
	for _, s := range []struct {
		name  string
		stage obs.Stage
	}{{"server.parse_us", obs.StageParse}, {"server.queue_wait_us", obs.StageQueueWait}, {"server.flush_us", obs.StageFlush}} {
		snap := spans.StageSnapshot(s.stage)
		r.set(s.name+".p50", "us", float64(snap.P50)/1e3)
		r.set(s.name+".p99", "us", float64(snap.P99)/1e3)
	}
	reportProc(r, pb, pa, closed.ops)
	w.reportLayers(r, closed.ops)
	t.reportLayers(r)
	reportAbsentReplay(r)
	if err := t.writeKept(spanLogPath(cfg)); err != nil {
		return err
	}
	for _, l := range []*loadStats{plain, closed, client} {
		st.stored.merge(&l.stored)
	}
	checkServeWindow(p, st.rigs, w, &st.stored, r)
	return nil
}

// checkServeWindow applies the validity gate to a measured serving window;
// ws is what the run stored, warm-up included.
func checkServeWindow(p serveParams, rigs []*harness.Rig, w counters, ws *storedSet, r *result) {
	// The zone count is read from the device OpenSharded built, which
	// splits the facade's zones over its shards.
	for i, rig := range rigs {
		if n := rig.ZNS.NumZones(); n < 16 {
			r.fail("shard %d has %d zones; Region-Cache GC thrashes below 16", i, n)
		}
	}
	if p.hot {
		if w.migrated != 0 {
			r.fail("%d middle-layer migrations in a window whose working set fits in cache", w.migrated)
		}
		return
	}
	fmt.Printf("working set: %d distinct keys stored x %.0f B mean = %.2fx the cache\n",
		len(ws.keys), float64(ws.bytes)/float64(max(ws.n, 1)), ws.size()/float64(p.cacheBytes()))
	if ws.size() <= float64(p.cacheBytes()) {
		r.fail("working set %.0f B (distinct keys stored x mean stored value) does not exceed the cache (%d B)", ws.size(), p.cacheBytes())
	}
	if w.evictions == 0 || w.migrated == 0 {
		r.fail("window not at steady state: %d evictions, %d migrations", w.evictions, w.migrated)
	}
}

// simProbe holds per-op simulated latencies: shard-clock deltas around each
// engine call, taken under the shard lock so no other op interleaves.
type simProbe struct {
	get, set samples
	ops      int
	simNs    time.Duration // the shard clock's advance over the probe
	rate     float64       // ops per simulated second, summed over shards
}

// report sets the simulated-latency per-layer metrics.
func (p *simProbe) report(r *result) {
	p.get.reportMean(r, "sim.get_mean_us")
	p.get.report(r, "sim.get_p99_us", 0.99)
	p.set.report(r, "sim.set_p99_us", 0.99)
}

// warmServe drives the stack to steady state through direct Backend calls
// with the workload's own op mix, one goroutine per shard. A shard is
// steady once its device has absorbed warmCapacities times its capacity and
// its per-interval middle-layer migrations have levelled off; the hot
// workload instead loads every key once. A last probeOps interval then
// records the simulated latency of every get and set.
func warmServe(seed uint64, p serveParams, st *stack, r *result) (*simProbe, error) {
	probes := make([]simProbe, len(st.rigs))
	errs := make([]error, len(st.rigs))
	var failed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range st.rigs {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			w := &shardWarmer{be: st.be, rig: st.rigs[shard], shard: shard, vm: newValueMaker(seed + uint64(shard))}
			errs[shard] = w.run(seed, p, &probes[shard])
			mu.Lock()
			failed += w.failed
			st.stored.merge(&w.stored)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if failed > 0 {
		r.fail("warm-up: %d gets returned a wrong or torn value", failed)
	}
	out := &simProbe{}
	for i := range probes {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out.get.merge(&probes[i].get)
		out.set.merge(&probes[i].set)
		out.rate += float64(probes[i].ops) / probes[i].simNs.Seconds()
	}
	return out, nil
}

// shardWarmer warms one shard.
type shardWarmer struct {
	be     server.ShardedBackend
	rig    *harness.Rig
	shard  int
	vm     *valueMaker
	failed int64
	stored storedSet
}

// apply executes one op on the shard under its lock, with read-through fill
// on a get miss; with probe non-nil it records the op's simulated latency.
func (w *shardWarmer) apply(op workload.Op, probe *simProbe) error {
	return w.be.ExecShard(w.shard, func(c *cache.Cache) {
		t0 := c.Clock().Now()
		switch op.Kind {
		case workload.OpGet:
			v, ok, err := c.Get(op.Key)
			if probe != nil {
				probe.get.add(c.Clock().Now() - t0)
			}
			if err != nil || (ok && checkStored(op.Key, v) != nil) {
				w.failed++
			}
			if !ok {
				v := w.vm.stored(op.Key, op.ValLen)
				c.Set(op.Key, v, 0) //nolint:errcheck
				w.stored.add(op.Key, len(v))
			}
		case workload.OpSet:
			v := w.vm.stored(op.Key, op.ValLen)
			if c.Set(op.Key, v, 0) != nil {
				w.failed++
			}
			w.stored.add(op.Key, len(v))
			if probe != nil {
				probe.set.add(c.Clock().Now() - t0)
			}
		case workload.OpDelete:
			c.Delete(op.Key)
		}
	})
}

func (w *shardWarmer) run(seed uint64, p serveParams, probe *simProbe) error {
	gen := p.gen(seed*1000 + uint64(w.shard))
	next := func() workload.Op {
		for {
			if op := gen.Next(); w.be.ShardFor(op.Key) == w.shard {
				return op
			}
		}
	}
	if p.hot {
		for k := int64(0); k < p.keys; k++ {
			key := workload.KeyName(k)
			if w.be.ShardFor(key) != w.shard {
				continue
			}
			if err := w.apply(workload.Op{Kind: workload.OpSet, Key: key, ValLen: p.sizes[int(k)%len(p.sizes)]}, nil); err != nil {
				return err
			}
		}
	} else {
		capacity := uint64(w.rig.ZNS.Size())
		var hist []uint64
		for ops := 0; ; ops += warmInterval {
			if ops >= warmMaxOps {
				return fmt.Errorf("shard %d not steady after %d ops: migrations per interval %v", w.shard, ops, hist)
			}
			m0 := w.rig.Middle.Migrated.Load()
			for i := 0; i < warmInterval; i++ {
				if err := w.apply(next(), nil); err != nil {
					return err
				}
			}
			hist = append(hist, w.rig.Middle.Migrated.Load()-m0)
			if w.rig.Middle.WA.Media() >= warmCapacities*capacity && levelled(hist) {
				fmt.Printf("warm-up shard %d steady after %d ops: migrations per %d ops %v\n", w.shard, ops+warmInterval, warmInterval, hist)
				break
			}
		}
	}
	t0 := w.rig.Clock.Now()
	for i := 0; i < probeOps; i++ {
		if err := w.apply(next(), probe); err != nil {
			return err
		}
	}
	probe.simNs = w.rig.Clock.Now() - t0
	probe.ops = probeOps
	return nil
}

// levelled reports whether the last levelSpan intervals' total is within
// 10% of the levelSpan intervals before them, and non-zero: per-interval GC
// work moves in zone-sized steps, so single intervals are too lumpy to
// compare.
func levelled(h []uint64) bool {
	n := len(h)
	if n < 2*levelSpan {
		return false
	}
	var recent, prior uint64
	for i := 0; i < levelSpan; i++ {
		recent += h[n-1-i]
		prior += h[n-1-levelSpan-i]
	}
	return prior > 0 && recent > 0 && float64(recent) <= 1.1*float64(prior) && float64(recent) >= float64(prior)/1.1
}

const levelSpan = 4

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
