package main

import (
	"os"
	"path/filepath"
	"strconv"

	"znscache/internal/harness"
)

// counters is a snapshot of every layer's exported counters, summed over a
// stack's rigs; the difference of two snapshots is a window's delta.
type counters struct {
	gets, hits, misses       uint64
	sets, dels               uint64
	evictions, flushes       uint64
	retries, fastGets        uint64
	migrated, gcRuns, gcNs   uint64 // middle layer
	stalls, stallNs          uint64
	midHost, midMedia        uint64
	fsClean, fsHost, fsMedia uint64 // f2fs
	ssdGC, ssdHost, ssdMedia uint64 // ssd FTL
	znsHost                  uint64
	programs, erases         uint64 // flash
	devBytes                 uint64 // Rig.DeviceWriteBytes
	simNs                    uint64 // largest clock advance of any rig
}

func snapCounters(rigs []*harness.Rig) counters {
	var c counters
	for _, rig := range rigs {
		c.add(snapRig(rig))
	}
	return c
}

// snapRig snapshots one rig; simNs is its clock position.
func snapRig(rig *harness.Rig) counters {
	st := rig.Engine.Stats()
	fh, fm, _ := rig.Engine.FastReadStats()
	c := counters{
		gets: st.Gets, hits: st.Hits, misses: st.Misses, sets: st.Sets, dels: st.Deletes,
		evictions: st.Evictions, flushes: st.Flushes, retries: st.StoreRetries,
		fastGets: fh + fm,
		devBytes: rig.DeviceWriteBytes(),
		simNs:    uint64(rig.Clock.Now()),
	}
	if m := rig.Middle; m != nil {
		c.migrated, c.gcRuns, c.gcNs = m.Migrated.Load(), m.GCRuns.Load(), m.GCTimeNs.Load()
		c.stalls, c.stallNs = m.BudgetStalls.Load(), m.StallTimeNs.Load()
		c.midHost, c.midMedia = m.WA.Host(), m.WA.Media()
	}
	if fs := rig.FS; fs != nil {
		c.fsClean, c.fsHost, c.fsMedia = fs.CleanRuns.Load(), fs.WA.Host(), fs.WA.Media()
	}
	if d := rig.SSD; d != nil {
		c.ssdGC, c.ssdHost, c.ssdMedia = d.GCRuns.Load(), d.WA.Host(), d.WA.Media()
		c.programs, c.erases = d.Array().Programs.Load(), d.Array().Erases.Load()
	}
	if d := rig.ZNS; d != nil {
		c.znsHost = d.HostWrites.Load()
		c.programs, c.erases = d.Array().Programs.Load(), d.Array().Erases.Load()
	}
	return c
}

// add sums o into c; simNs keeps the larger value.
func (c *counters) add(o counters) {
	sim := max(c.simNs, o.simNs)
	c.combine(o, func(a, b uint64) uint64 { return a + b })
	c.simNs = sim
}

// sub returns the window delta c - before; simNs is the largest per-rig
// clock advance, which for a summed snapshot of parallel shards is the
// difference of the furthest clocks.
func (c counters) sub(before counters) counters {
	d := c
	d.combine(before, func(a, b uint64) uint64 { return a - b })
	return d
}

func (c *counters) combine(o counters, f func(a, b uint64) uint64) {
	fields := []struct{ a, b *uint64 }{
		{&c.gets, &o.gets}, {&c.hits, &o.hits}, {&c.misses, &o.misses}, {&c.sets, &o.sets}, {&c.dels, &o.dels},
		{&c.evictions, &o.evictions}, {&c.flushes, &o.flushes}, {&c.retries, &o.retries}, {&c.fastGets, &o.fastGets},
		{&c.migrated, &o.migrated}, {&c.gcRuns, &o.gcRuns}, {&c.gcNs, &o.gcNs},
		{&c.stalls, &o.stalls}, {&c.stallNs, &o.stallNs}, {&c.midHost, &o.midHost}, {&c.midMedia, &o.midMedia},
		{&c.fsClean, &o.fsClean}, {&c.fsHost, &o.fsHost}, {&c.fsMedia, &o.fsMedia},
		{&c.ssdGC, &o.ssdGC}, {&c.ssdHost, &o.ssdHost}, {&c.ssdMedia, &o.ssdMedia},
		{&c.znsHost, &o.znsHost}, {&c.programs, &o.programs}, {&c.erases, &o.erases},
		{&c.devBytes, &o.devBytes}, {&c.simNs, &o.simNs},
	}
	for _, f2 := range fields {
		*f2.a = f(*f2.a, *f2.b)
	}
}

// waf is the middle layer's write amplification over the window.
func (c counters) waf() float64 { return div(c.midMedia, c.midHost) }

func div(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// reportLayers sets the counter-derived per-layer metrics for a window of
// ops client operations.
func (c counters) reportLayers(r *result, ops int64) {
	kop := float64(max(ops, 1)) / 1000
	r.set("cache.fast_get_share", "ratio", div(c.fastGets, c.gets))
	r.set("cache.evictions_per_kop", "count/kop", float64(c.evictions)/kop)
	r.set("cache.region_flushes_per_kop", "count/kop", float64(c.flushes)/kop)
	r.set("cache.store_retries", "count", float64(c.retries))
	r.set("middle.gc_runs_per_kop", "count/kop", float64(c.gcRuns)/kop)
	r.set("middle.migrated_per_kop", "count/kop", float64(c.migrated)/kop)
	r.set("middle.gc_sim_ms", "ms", float64(c.gcNs)/1e6)
	r.set("middle.budget_stalls", "count", float64(c.stalls))
	r.set("middle.stall_sim_ms", "ms", float64(c.stallNs)/1e6)
	r.set("middle.waf", "x", c.waf())
	r.set("flash.pages_programmed", "count", float64(c.programs))
	r.set("flash.erases", "count", float64(c.erases))
	r.set("f2fs.clean_runs_per_kop", "count/kop", float64(c.fsClean)/kop)
	r.set("f2fs.waf", "x", div(c.fsMedia, c.fsHost))
	r.set("ssd.gc_runs_per_kop", "count/kop", float64(c.ssdGC)/kop)
	r.set("ssd.waf", "x", div(c.ssdMedia, c.ssdHost))
}

// replaySchemes names the per-scheme replay metrics' schemes.
var replaySchemes = []string{"zone", "file", "block"}

// reportAbsentReplay sets the replay-only per-layer metrics to zero on a
// serving workload, where nothing is replayed.
func reportAbsentReplay(r *result) {
	for _, s := range replaySchemes {
		for _, m := range []struct{ name, unit string }{
			{"sim_waf", "x"}, {"sim_ops_per_s", "1/s"}, {"ops_per_s", "1/s"}, {"hit_ratio", "ratio"}, {"wall_s", "s"},
		} {
			r.set("replay."+s+"."+m.name, m.unit, 0)
		}
	}
	r.set("replay.region.digest_stable", "bool", 0)
}

// spanLogPath is where a traced run writes its kept spans: in a directory of
// their own under the build directory, which also holds the benchmark's
// binary (named perfbench, so the spans cannot go under that name).
func spanLogPath(cfg runConfig) string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, "spans", "spans-"+cfg.workload+"-seed"+strconv.FormatUint(cfg.seed, 10)+".tsv")
}
