package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"time"

	"znscache/internal/cache"
	"znscache/internal/harness"
	"znscache/internal/workload"
)

// The Table 1 geometry (harness.DefaultFig4 at its lowest OP point): 60
// zones of 16 MiB, 10% over-provisioning, access-ordered region eviction,
// 256k keys of the bc mix.
const (
	table1Zones = 60
	table1OP    = 0.10
	table1Keys  = 256 << 10
	// replayInterval is the warm-up's gate interval in ops.
	replayInterval = 100_000
	// replayMaxOps bounds a scheme's warm-up; not steady by then is invalid.
	replayMaxOps = 8_000_000
	// replayWorkers warm schemes in parallel (at most nproc).
	replayWorkers = 2
	// replaySetups is the number of set-ups per run; setup_s is their
	// median.
	replaySetups = 401
)

// replaySchemeOrder is the order schemes are measured in; the metric name
// of each is its lower-case first word.
var replaySchemeOrder = []harness.Scheme{harness.RegionCache, harness.ZoneCache, harness.FileCache, harness.BlockCache}

func schemeName(s harness.Scheme) string {
	return map[harness.Scheme]string{
		harness.RegionCache: "region", harness.ZoneCache: "zone",
		harness.FileCache: "file", harness.BlockCache: "block",
	}[s]
}

// table1Config is the RigConfig harness.RunFig4Table1 builds for scheme at
// 10% OP; Block-Cache, which Table 1 omits, gets the same cache size and OP.
func table1Config(s harness.Scheme) harness.RigConfig {
	hw := harness.DefaultHW(table1Zones)
	cfg := harness.RigConfig{Scheme: s, HW: hw, Policy: cache.LRU, PolicySet: true}
	if s == harness.ZoneCache {
		cfg.ZoneCount = table1Zones
		return cfg
	}
	dev := int64(table1Zones) * hw.ZoneBytes()
	cfg.CacheBytes = int64(float64(dev)*(1-table1OP)/float64(256<<10)) * (256 << 10)
	cfg.OPRatio = table1OP
	cfg.FSMetaOverheadSet = true
	return cfg
}

// replayRig is one scheme instance being replayed.
type replayRig struct {
	scheme harness.Scheme
	rig    *harness.Rig
	ln     *lane // nil for a harness.Build rig
	gen    *workload.BC

	warmOps  int
	warmWall time.Duration
	digest   uint64
	warmErr  error
	failed   int64
}

func newReplayRig(s harness.Scheme, seed uint64, ln *lane) (*replayRig, error) {
	var rig *harness.Rig
	var err error
	if ln == nil {
		rig, err = harness.Build(table1Config(s))
	} else {
		rig, err = assemble(table1Config(s), ln)
	}
	if err != nil {
		return nil, fmt.Errorf("%v: %w", s, err)
	}
	return &replayRig{
		scheme: s, rig: rig, ln: ln,
		gen: workload.NewBC(workload.BCConfig{Keys: table1Keys, Seed: seed}),
	}, nil
}

// replayLat collects per-call latencies of a measured window: wall clock
// for every call, and the rig's virtual clock when sim is set.
type replayLat struct {
	get, set       samples
	simGet, simSet samples
	sim            bool
}

// call runs one engine call, timing it into wall/simS when lat is non-nil
// and wrapping it in a cache.exec span when the rig is traced.
func (rr *replayRig) call(lat *replayLat, wall, simS *samples, fn func() error) {
	traced := rr.ln != nil && rr.ln.t.on.Load()
	var w0 time.Time
	var s0 time.Duration
	if lat != nil || traced {
		w0, s0 = time.Now(), rr.rig.Clock.Now()
	}
	if traced {
		rr.ln.push(spCacheExec, 0, 0)
	}
	err := fn()
	if traced {
		rr.ln.pop(rr.rig.Clock.Now()-s0, 0)
	}
	if lat != nil {
		wall.add(time.Since(w0))
		if lat.sim {
			simS.add(rr.rig.Clock.Now() - s0)
		}
	}
	if err != nil {
		rr.failed++
	}
}

// step applies one bc op (a get miss fills, read-through) and returns the
// number of engine calls it made.
func (rr *replayRig) step(op workload.Op, lat *replayLat) int {
	eng := rr.rig.Engine
	var get, set, simGet, simSet *samples
	if lat != nil {
		get, set, simGet, simSet = &lat.get, &lat.set, &lat.simGet, &lat.simSet
	}
	switch op.Kind {
	case workload.OpGet:
		hit := false
		rr.call(lat, get, simGet, func() (err error) { _, hit, err = eng.Get(op.Key); return err })
		if hit {
			return 1
		}
		rr.call(lat, set, simSet, func() error { return eng.Set(op.Key, nil, op.ValLen) })
		return 2
	case workload.OpSet:
		rr.call(lat, set, simSet, func() error { return eng.Set(op.Key, nil, op.ValLen) })
	case workload.OpDelete:
		rr.call(nil, nil, nil, func() error { eng.Delete(op.Key); return nil })
	}
	return 1
}

// warm replays the bc mix until the device has absorbed twice its capacity
// and the per-interval device bytes have levelled off, then records the
// digest of the rig's simulated counters.
func (rr *replayRig) warm() {
	t0 := time.Now()
	capacity := uint64(table1Zones) * uint64(table1Config(rr.scheme).HW.ZoneBytes())
	var hist []uint64
	for {
		if rr.warmOps >= replayMaxOps {
			rr.warmErr = fmt.Errorf("%v not steady after %d ops: device bytes per interval %v", rr.scheme, rr.warmOps, hist)
			return
		}
		d0 := rr.rig.DeviceWriteBytes()
		for i := 0; i < replayInterval; i++ {
			rr.step(rr.gen.Next(), nil)
		}
		rr.warmOps += replayInterval
		hist = append(hist, rr.rig.DeviceWriteBytes()-d0)
		if rr.rig.DeviceWriteBytes() >= 2*capacity && levelled(hist) {
			break
		}
	}
	rr.warmWall = time.Since(t0)
	rr.digest = rigDigest(rr.rig, rr.warmOps)
}

// gcRuns is the scheme's own GC pass count.
func gcRuns(c counters) uint64 { return c.gcRuns + c.fsClean + c.ssdGC }

// rigDigest hashes a rig's simulated counters. Two same-seed replays of a
// deterministic scheme give the same digest.
func rigDigest(rig *harness.Rig, ops int) uint64 {
	c := snapRig(rig)
	h := fnv.New64a()
	for _, v := range []uint64{uint64(ops), c.gets, c.hits, c.misses, c.sets, c.dels, c.evictions,
		c.flushes, c.devBytes, gcRuns(c), c.migrated, c.simNs} {
		h.Write(binary.LittleEndian.AppendUint64(nil, v)) //nolint:errcheck
	}
	return h.Sum64()
}

// warmAll warms every rig on replayWorkers goroutines.
func warmAll(rigs []*replayRig) error {
	var wg sync.WaitGroup
	work := make(chan *replayRig, len(rigs))
	for _, rr := range rigs {
		work <- rr
	}
	close(work)
	for i := 0; i < replayWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rr := range work {
				rr.warm()
			}
		}()
	}
	wg.Wait()
	for _, rr := range rigs {
		if rr.warmErr != nil {
			return rr.warmErr
		}
		fmt.Printf("digest %-12v %016x after %d warm-up ops (%.1fs)\n", rr.scheme, rr.digest, rr.warmOps, rr.warmWall.Seconds())
	}
	return nil
}

// replayWindow is one scheme's measured window.
type replayWindow struct {
	ops     int64 // bc ops generated
	calls   int64
	elapsed time.Duration
	delta   counters
}

// measure replays for d of wall time, one goroutine, timing every call.
func (rr *replayRig) measure(d time.Duration, lat *replayLat) replayWindow {
	before := snapRig(rr.rig)
	start := time.Now()
	deadline := start.Add(d)
	var ops, calls int64
	for time.Now().Before(deadline) {
		for i := 0; i < 256; i++ {
			calls += int64(rr.step(rr.gen.Next(), lat))
		}
		ops += 256
	}
	w := replayWindow{ops: ops, calls: calls, elapsed: time.Since(start)}
	rr.rig.Engine.Drain()
	w.delta = snapRig(rr.rig).sub(before)
	return w
}

// schemeWAF is a window's write amplification at the layer the paper
// reports for the scheme.
func schemeWAF(s harness.Scheme, c counters) float64 {
	switch s {
	case harness.RegionCache:
		return c.waf()
	case harness.FileCache:
		return div(c.fsMedia, c.fsHost)
	case harness.BlockCache:
		return div(c.ssdMedia, c.ssdHost)
	}
	return div(c.programs*4096, c.znsHost)
}

// checkReplayWindow applies the per-scheme invariants and validity gate.
func checkReplayWindow(s harness.Scheme, w replayWindow, r *result) {
	c := w.delta
	if c.gets != c.hits+c.misses {
		r.fail("%v: gets %d != hits %d + misses %d", s, c.gets, c.hits, c.misses)
	}
	var host, media uint64
	switch s {
	case harness.RegionCache:
		host, media = c.midHost, c.midMedia
		if c.migrated == 0 {
			r.fail("%v window not at steady state: no middle-layer migrations", s)
		}
	case harness.FileCache:
		host, media = c.fsHost, c.fsMedia
	case harness.BlockCache:
		host, media = c.ssdHost, c.ssdMedia
	case harness.ZoneCache:
		host, media = c.znsHost, c.programs*4096
		if host != media {
			r.fail("%v: device bytes %d != host bytes %d (WAF must be exactly 1)", s, media, host)
		}
	}
	if media < host {
		r.fail("%v: device bytes %d < host bytes %d", s, media, host)
	}
	if c.evictions == 0 {
		r.fail("%v window not at steady state: no evictions", s)
	}
}

// buildSchemes builds one rig per scheme, decorated when t is non-nil.
func buildSchemes(seed uint64, t *tracer) ([]*replayRig, error) {
	var out []*replayRig
	for _, s := range replaySchemeOrder {
		var ln *lane
		if t != nil {
			ln = &lane{t: t}
		}
		rr, err := newReplayRig(s, seed, ln)
		if err != nil {
			return nil, err
		}
		out = append(out, rr)
	}
	return out, nil
}

func runReplay(cfg runConfig, r *result) error {
	if cfg.trace {
		return runReplayTraced(cfg, r)
	}
	var rigs []*replayRig
	setup, err := setupSeconds(replaySetups, func() error {
		rigs = nil
		return nil
	}, func() (err error) {
		rigs, err = buildSchemes(cfg.seed, nil)
		return err
	})
	if err != nil {
		return err
	}
	r.set("setup_s", "s", setup)
	if err := warmAll(rigs); err != nil {
		return err
	}
	rss := peakRSSMiB() // read before the windows, as on the serving workloads
	printWorkingSet()

	var calls, gets, hits int64
	var wall time.Duration
	var cpu time.Duration
	for _, rr := range rigs {
		runtime.GC() // each window starts from the same collector phase
		cpu0 := takeProcSnap()
		w := rr.measure(cfg.window/time.Duration(len(rigs)), nil)
		cpu += takeProcSnap().sub(cpu0).cpu
		checkReplayWindow(rr.scheme, w, r)
		calls += w.calls
		wall += w.elapsed
		gets += int64(w.delta.gets)
		hits += int64(w.delta.hits)
		r.Failed += rr.failed
		fmt.Printf("window %-12v %8d calls %6.2fs wall  %9.0f ops/s  WAF %.3f  hit %.4f\n", rr.scheme, w.calls,
			w.elapsed.Seconds(), float64(w.calls)/w.elapsed.Seconds(), schemeWAF(rr.scheme, w.delta), div(w.delta.hits, w.delta.gets))
		if rr.scheme == harness.RegionCache {
			r.set("sim_waf", "x", w.delta.waf())
			r.set("sim_ops_per_s", "1/s", float64(w.calls)/time.Duration(w.delta.simNs).Seconds())
		}
	}
	r.Attempted = calls
	r.set("ops_per_s", "1/s", float64(calls)/wall.Seconds())
	r.set("cpu_us_per_op", "us", float64(cpu)/1e3/float64(max(calls, 1)))
	r.set("hit_ratio", "ratio", ratio(hits, gets))
	r.set("peak_rss_mib", "MiB", rss)
	return nil
}

// printWorkingSet reports the bc key space's nominal footprint against the
// Table 1 cache.
func printWorkingSet() {
	mean := (512*25 + 1024*30 + 4096*30 + 8192*10 + 16384*5) / 100.0
	ws := float64(table1Keys) * mean
	fmt.Printf("working set %.0f MiB (keys x mean value) vs cache %d MiB: %.2fx\n",
		ws/(1<<20), table1Config(harness.RegionCache).CacheBytes>>20, ws/float64(table1Config(harness.RegionCache).CacheBytes))
}

// generatorCPUPerOp is the CPU time per op of the bc generator running
// alone: the replay loop's own work, which the engine calls ride on.
func generatorCPUPerOp(seed uint64) float64 {
	const n = 1_000_000
	gen := workload.NewBC(workload.BCConfig{Keys: table1Keys, Seed: seed})
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	for i := 0; i < n; i++ {
		gen.Next()
	}
	return float64(threadCPU()-t0) / n
}

// runReplayTraced warms harness.Build rigs and decorated rigs side by side.
// Same-seed digests must agree for the deterministic schemes (the
// decorators only observe); a second harness Region-Cache rig shows whether
// that scheme's digest is stable. Each scheme then runs an untraced window
// on its harness rig and a traced one on its decorated rig.
func runReplayTraced(cfg runConfig, r *result) error {
	t := newTracer()
	plain, err := buildSchemes(cfg.seed, nil)
	if err != nil {
		return err
	}
	traced, err := buildSchemes(cfg.seed, t)
	if err != nil {
		return err
	}
	region2, err := newReplayRig(harness.RegionCache, cfg.seed, nil)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := warmAll(append(append(slices.Clone(plain), traced...), region2)); err != nil {
		return err
	}
	r.set("client.warmup_s", "s", time.Since(t0).Seconds())
	for i, rr := range plain {
		if rr.scheme != harness.RegionCache && rr.digest != traced[i].digest {
			r.fail("%v: traced stack digest %016x differs from harness.Build's %016x", rr.scheme, traced[i].digest, rr.digest)
		}
	}
	stable := 0.0
	if plain[0].digest == region2.digest {
		stable = 1
	}
	r.set("replay.region.digest_stable", "bool", stable)
	fmt.Printf("replay.region.digest_stable=%v\n", stable == 1)

	slot := cfg.window / time.Duration(2*len(plain))
	var plainOps, plainCalls, tracedCalls int64
	var plainWall, plainCPU, tracedWall time.Duration
	var delta counters
	var proc procSnap
	lat := &replayLat{}
	t.reset()
	for i, rr := range plain {
		// Both windows time every call, so tracing is the only difference.
		plainLat := &replayLat{sim: rr.scheme == harness.RegionCache}
		p0 := takeProcSnap()
		w := rr.measure(slot, plainLat)
		plainCPU += takeProcSnap().sub(p0).cpu
		plainOps += w.ops
		if plainLat.sim {
			(&simProbe{get: plainLat.simGet, set: plainLat.simSet}).report(r)
		}
		checkReplayWindow(rr.scheme, w, r)
		plainCalls += w.calls
		plainWall += w.elapsed
		if rr.scheme != harness.RegionCache {
			n := "replay." + schemeName(rr.scheme) + "."
			r.set(n+"sim_waf", "x", schemeWAF(rr.scheme, w.delta))
			r.set(n+"sim_ops_per_s", "1/s", float64(w.calls)/time.Duration(w.delta.simNs).Seconds())
			r.set(n+"ops_per_s", "1/s", float64(w.calls)/w.elapsed.Seconds())
			r.set(n+"hit_ratio", "ratio", div(w.delta.hits, w.delta.gets))
			r.set(n+"wall_s", "s", rr.warmWall.Seconds())
		}

		pb := takeProcSnap()
		t.on.Store(true)
		tw := traced[i].measure(slot, lat)
		t.on.Store(false)
		proc = proc.add(takeProcSnap().sub(pb))
		checkReplayWindow(rr.scheme, tw, r)
		tracedCalls += tw.calls
		tracedWall += tw.elapsed
		delta.add(tw.delta)
		r.Failed += rr.failed + traced[i].failed
	}
	r.Attempted = plainCalls + tracedCalls
	reportClientCPU(r, time.Duration(generatorCPUPerOp(cfg.seed)*float64(plainOps)), plainCPU, plainCalls)

	untracedRate := float64(plainCalls) / plainWall.Seconds()
	tracedRate := float64(tracedCalls) / tracedWall.Seconds()
	r.set("trace.ops_per_s_untraced", "1/s", untracedRate)
	r.set("trace.ops_per_s_traced", "1/s", tracedRate)
	r.set("trace.overhead_frac", "ratio", 1-tracedRate/untracedRate)
	lat.get.report(r, "client.get_p50_us", 0.50)
	lat.get.report(r, "client.get_p99_us", 0.99)
	lat.set.report(r, "client.set_p99_us", 0.99)
	lat.get.merge(&lat.set)
	lat.get.report(r, "client.batch_rtt_us.p50", 0.50)
	lat.get.report(r, "client.batch_rtt_us.p99", 0.99)
	r.set("client.gen_late_us.p99", "us", 0) // closed loop: nothing is scheduled
	for _, s := range []string{"server.parse_us", "server.queue_wait_us", "server.flush_us"} {
		r.set(s+".p50", "us", 0) // no server on the replay path
		r.set(s+".p99", "us", 0)
	}
	reportProc(r, procSnap{}, proc, tracedCalls)
	delta.reportLayers(r, tracedCalls)
	t.reportLayers(r)
	return t.writeKept(spanLogPath(cfg))
}
