package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"znscache/internal/cache"
	"znscache/internal/zns"
)

// spanKind names one traced interface call.
type spanKind uint8

const (
	spBackendGet    spanKind = iota // server.Backend.Get
	spBackendSet                    // server.Backend.Set / SetWithTTL
	spBackendDelete                 // server.Backend.Delete
	spBackendExec                   // ShardedBackend.ExecShard, lock wait included
	spCacheExec                     // engine work: an ExecShard fn, a locked get, or one replay op
	spStoreWrite                    // cache.RegionStore.WriteRegion
	spStoreRead                     // cache.RegionStore.ReadRegion
	spStoreEvict                    // cache.RegionStore.EvictRegion
	spZnsWrite                      // zns.Zoned.Write / Append
	spZnsRead                       // zns.Zoned.Read
	spZnsReset                      // zns.Zoned.Reset
	spZnsFinish                     // zns.Zoned.Finish
	numKinds
)

var kindNames = [numKinds]string{
	"backend.get", "backend.set", "backend.delete", "backend.exec", "cache.exec",
	"store.write_region", "store.read_region", "store.evict_region",
	"zns.write", "zns.read", "zns.reset", "zns.finish",
}

// span is one finished call. Times are nanoseconds since the tracer's
// epoch; parent is the enclosing span's id (0 for a root); op is the id of
// the root call the span belongs to.
type span struct {
	id, parent, op uint64
	kind           spanKind
	start, end     int64
	sim            int64 // simulated nanoseconds the call returned
}

// kindAgg accumulates every span of one kind.
type kindAgg struct {
	calls    uint64
	self     int64 // wall nanoseconds not covered by child spans
	sim      int64
	bytes    uint64
	underRWs uint64 // zns reads nested directly under store.write_region
}

// keepSpans bounds the raw span log written out when the run ends; every
// span, kept or not, is folded into the aggregates.
const keepSpans = 200_000

// tracer collects spans from the decorators. on gates every decorator:
// while it is false they pass straight through.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64

	mu         sync.Mutex
	agg        [numKinds]kindAgg
	execSelf   samples // cache.exec self time
	lockWait   samples // ExecShard entry to fn start
	kept       []span
	violations uint64 // spans whose children cover more than the span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), kept: make([]span, 0, keepSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reset clears everything collected so far (a new window starts).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.agg = [numKinds]kindAgg{}
	t.execSelf = samples{}
	t.lockWait = samples{}
	t.kept = t.kept[:0]
	t.violations = 0
}

// record folds one finished span with the given child coverage into the
// aggregates.
func (t *tracer) record(s span, child int64, bytes uint64, underWrite bool) {
	self := s.end - s.start - child
	t.mu.Lock()
	if self < 0 {
		t.violations++
		self = 0
	}
	a := &t.agg[s.kind]
	a.calls++
	a.self += self
	a.sim += s.sim
	a.bytes += bytes
	if underWrite {
		a.underRWs++
	}
	if s.kind == spCacheExec {
		t.execSelf.add(time.Duration(self))
	}
	if len(t.kept) < keepSpans {
		t.kept = append(t.kept, s)
	}
	t.mu.Unlock()
}

// writeKept writes the kept span log as tab-separated text.
func (t *tracer) writeKept(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns\tsim_ns")
	t.mu.Lock()
	for _, s := range t.kept {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.op, kindNames[s.kind], s.start, s.end, s.sim)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// frame is an open span on a lane.
type frame struct {
	span
	child int64
}

// lane is one serialization domain: a shard's engine (every call into its
// store and device happens under the shard lock) or a replay goroutine.
// Only the goroutine currently owning the domain touches the stack.
type lane struct {
	t     *tracer
	stack []frame
}

// push opens a span under parent (0: under the lane's innermost open span,
// or a root).
func (l *lane) push(kind spanKind, parent, op uint64) {
	if parent == 0 && len(l.stack) > 0 {
		top := &l.stack[len(l.stack)-1]
		parent, op = top.id, top.op
	}
	id := l.t.ids.Add(1)
	if op == 0 {
		op = id
	}
	l.stack = append(l.stack, frame{span: span{id: id, parent: parent, op: op, kind: kind, start: l.t.now()}})
}

// pop closes the innermost span and returns its wall duration.
func (l *lane) pop(sim time.Duration, bytes uint64) int64 {
	f := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	f.end = l.t.now()
	f.sim = int64(sim)
	dur := f.end - f.start
	underWrite := false
	if n := len(l.stack); n > 0 {
		l.stack[n-1].child += dur
		underWrite = l.stack[n-1].kind == spStoreWrite
	}
	l.t.record(f.span, f.child, bytes, underWrite)
	return dur
}

// tracedStore times every cache.RegionStore call.
type tracedStore struct {
	inner cache.RegionStore
	lane  *lane
}

var _ cache.SyncCoster = (*tracedStore)(nil)

func (s *tracedStore) NumRegions() int   { return s.inner.NumRegions() }
func (s *tracedStore) RegionSize() int64 { return s.inner.RegionSize() }

func (s *tracedStore) WriteRegion(now time.Duration, id int, data []byte) (time.Duration, error) {
	if !s.lane.t.on.Load() {
		return s.inner.WriteRegion(now, id, data)
	}
	s.lane.push(spStoreWrite, 0, 0)
	lat, err := s.inner.WriteRegion(now, id, data)
	s.lane.pop(lat, uint64(s.inner.RegionSize()))
	return lat, err
}

func (s *tracedStore) ReadRegion(now time.Duration, id int, p []byte, n int, off int64) (time.Duration, error) {
	if !s.lane.t.on.Load() {
		return s.inner.ReadRegion(now, id, p, n, off)
	}
	s.lane.push(spStoreRead, 0, 0)
	lat, err := s.inner.ReadRegion(now, id, p, n, off)
	s.lane.pop(lat, uint64(n))
	return lat, err
}

func (s *tracedStore) EvictRegion(now time.Duration, id int) (time.Duration, error) {
	if !s.lane.t.on.Load() {
		return s.inner.EvictRegion(now, id)
	}
	s.lane.push(spStoreEvict, 0, 0)
	lat, err := s.inner.EvictRegion(now, id)
	s.lane.pop(lat, 0)
	return lat, err
}

// WriteSyncCost forwards the optional cache.SyncCoster extension. A store
// without it costs nothing synchronously, which the engine treats exactly
// like the extension being absent (the clock advances by zero).
func (s *tracedStore) WriteSyncCost() time.Duration {
	if sc, ok := s.inner.(cache.SyncCoster); ok {
		return sc.WriteSyncCost()
	}
	return 0
}

// tracedZoned times the data-path calls of a zns.Zoned device.
type tracedZoned struct {
	zns.Zoned
	lane *lane
}

func (z *tracedZoned) Write(now time.Duration, data []byte, n int, off int64) (time.Duration, error) {
	if !z.lane.t.on.Load() {
		return z.Zoned.Write(now, data, n, off)
	}
	z.lane.push(spZnsWrite, 0, 0)
	lat, err := z.Zoned.Write(now, data, n, off)
	z.lane.pop(lat, uint64(n))
	return lat, err
}

func (z *tracedZoned) Append(now time.Duration, data []byte, n int, zone int) (time.Duration, int64, error) {
	if !z.lane.t.on.Load() {
		return z.Zoned.Append(now, data, n, zone)
	}
	z.lane.push(spZnsWrite, 0, 0)
	lat, off, err := z.Zoned.Append(now, data, n, zone)
	z.lane.pop(lat, uint64(n))
	return lat, off, err
}

func (z *tracedZoned) Read(now time.Duration, p []byte, off int64) (time.Duration, error) {
	if !z.lane.t.on.Load() {
		return z.Zoned.Read(now, p, off)
	}
	z.lane.push(spZnsRead, 0, 0)
	lat, err := z.Zoned.Read(now, p, off)
	z.lane.pop(lat, uint64(len(p)))
	return lat, err
}

func (z *tracedZoned) Reset(now time.Duration, zone int) (time.Duration, error) {
	if !z.lane.t.on.Load() {
		return z.Zoned.Reset(now, zone)
	}
	z.lane.push(spZnsReset, 0, 0)
	lat, err := z.Zoned.Reset(now, zone)
	z.lane.pop(lat, 0)
	return lat, err
}

func (z *tracedZoned) Finish(now time.Duration, zone int) (time.Duration, error) {
	if !z.lane.t.on.Load() {
		return z.Zoned.Finish(now, zone)
	}
	z.lane.push(spZnsFinish, 0, 0)
	lat, err := z.Zoned.Finish(now, zone)
	z.lane.pop(lat, 0)
	return lat, err
}

// reportLayers sets the span-derived per-layer metrics (store.*, zns.*,
// cache.exec_self_us, cache.lock_wait_us, trace.spans) and fails the run if
// any span's children covered more than the span itself.
func (t *tracer) reportLayers(r *result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	perCall := func(prefix string, k spanKind) {
		a := t.agg[k]
		r.set(prefix+".calls", "count", float64(a.calls))
		if k == spStoreEvict {
			return
		}
		selfUS, simUS := 0.0, 0.0
		if a.calls > 0 {
			selfUS = float64(a.self) / 1e3 / float64(a.calls)
			simUS = float64(a.sim) / 1e3 / float64(a.calls)
		}
		r.set(prefix+".self_us", "us", selfUS)
		r.set(prefix+".sim_us", "us", simUS)
	}
	perCall("store.write_region", spStoreWrite)
	perCall("store.read_region", spStoreRead)
	perCall("store.evict_region", spStoreEvict)
	perCall("zns.write", spZnsWrite)
	perCall("zns.read", spZnsRead)
	perCall("zns.reset", spZnsReset)
	perCall("zns.finish", spZnsFinish)
	r.set("zns.write_bytes", "B", float64(t.agg[spZnsWrite].bytes))
	r.set("middle.gc_read_calls", "count", float64(t.agg[spZnsRead].underRWs))
	for _, q := range []struct {
		name string
		s    *samples
		p    float64
	}{
		{"cache.exec_self_us.p50", &t.execSelf, 0.50},
		{"cache.exec_self_us.p99", &t.execSelf, 0.99},
		{"cache.lock_wait_us.p50", &t.lockWait, 0.50},
		{"cache.lock_wait_us.p99", &t.lockWait, 0.99},
	} {
		v, _ := q.s.quantile(q.p) // no lock is taken on the replay path: 0 samples there
		r.set(q.name, "us", v)
	}
	var n uint64
	for _, a := range t.agg {
		n += a.calls
	}
	r.set("trace.spans", "count", float64(n))
	if t.violations > 0 {
		r.fail("trace: %d spans have children covering more than the span", t.violations)
	}
}
