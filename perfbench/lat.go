package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// samples keeps every observed duration exactly. Percentiles are read from
// the sorted raw values, so they resolve any change, unlike the program's
// 12%-growth histogram buckets.
type samples struct {
	v []int64 // nanoseconds
}

func (s *samples) add(d time.Duration) { s.v = append(s.v, int64(d)) }

func (s *samples) merge(o *samples) { s.v = append(s.v, o.v...) }

func (s *samples) n() int { return len(s.v) }

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs 1000 samples.
const minTail = 10

// quantile returns the q-quantile (nearest rank) in microseconds. ok is
// false when fewer than minTail samples lie above it.
func (s *samples) quantile(q float64) (us float64, ok bool) {
	n := len(s.v)
	if n == 0 {
		return 0, false
	}
	if !slices.IsSorted(s.v) {
		slices.Sort(s.v)
	}
	i := int(q*float64(n)+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return float64(s.v[i]) / 1e3, n-1-i >= minTail
}

// mean returns the mean in microseconds.
func (s *samples) mean() float64 {
	if len(s.v) == 0 {
		return 0
	}
	var sum int64
	for _, x := range s.v {
		sum += x
	}
	return float64(sum) / float64(len(s.v)) / 1e3
}

// report sets name to the q-quantile of s in microseconds, prints it with
// its sample count, and fails the run when too few samples lie beyond it.
func (s *samples) report(r *result, name string, q float64) {
	v, ok := s.quantile(q)
	fmt.Printf("percentile %s = %.3f us (n=%d)\n", name, v, s.n())
	if !ok {
		r.fail("%s: only %d samples, fewer than %d beyond the percentile", name, s.n(), minTail)
	}
	r.set(name, "us", v)
}

// reportMean sets name to the mean of s in microseconds and prints it with
// its sample count.
func (s *samples) reportMean(r *result, name string) {
	fmt.Printf("mean %s = %.3f us (n=%d)\n", name, s.mean(), s.n())
	if s.n() == 0 {
		r.fail("%s: no samples", name)
	}
	r.set(name, "us", s.mean())
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// procSnap captures process CPU time and Go runtime counters at a window
// boundary; the difference of two snapshots is the window's cost.
type procSnap struct {
	cpu      time.Duration
	allocB   uint64
	gcCycles uint64
	gcCPU    float64
	totalCPU float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeProcSnap() procSnap {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck
	metrics.Read(runtimeSamples)
	return procSnap{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB:   runtimeSamples[0].Value.Uint64(),
		gcCycles: runtimeSamples[1].Value.Uint64(),
		gcCPU:    runtimeSamples[2].Value.Float64(),
		totalCPU: runtimeSamples[3].Value.Float64(),
	}
}

// threadCPU is the CPU time of the calling OS thread.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_THREAD, &ru) //nolint:errcheck
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sub returns the cost between q and p.
func (p procSnap) sub(q procSnap) procSnap {
	return procSnap{cpu: p.cpu - q.cpu, allocB: p.allocB - q.allocB, gcCycles: p.gcCycles - q.gcCycles,
		gcCPU: p.gcCPU - q.gcCPU, totalCPU: p.totalCPU - q.totalCPU}
}

// add sums two costs.
func (p procSnap) add(q procSnap) procSnap {
	return procSnap{cpu: p.cpu + q.cpu, allocB: p.allocB + q.allocB, gcCycles: p.gcCycles + q.gcCycles,
		gcCPU: p.gcCPU + q.gcCPU, totalCPU: p.totalCPU + q.totalCPU}
}

// reportClientCPU sets the benchmark's own share of an untraced window of
// ops operations: the load generator's CPU per op, and its fraction of the
// window's process CPU.
func reportClientCPU(r *result, client, proc time.Duration, ops int64) {
	r.set("client.cpu_us_per_op", "us", float64(client)/1e3/float64(max(ops, 1)))
	r.set("client.cpu_share", "ratio", float64(client)/float64(max(proc, 1)))
}

// reportProc sets the runtime and process-CPU per-layer metrics for a
// window of ops operations between a and b.
func reportProc(r *result, a, b procSnap, ops int64) {
	per := float64(max(ops, 1))
	r.set("proc.cpu_us_per_op", "us", float64(b.cpu-a.cpu)/1e3/per)
	r.set("runtime.alloc_bytes_per_op", "B/op", float64(b.allocB-a.allocB)/per)
	r.set("runtime.gc_cycles", "count", float64(b.gcCycles-a.gcCycles))
	frac := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		frac = (b.gcCPU - a.gcCPU) / d
	}
	r.set("runtime.gc_cpu_frac", "ratio", frac)
}

// setupSeconds runs setup n times, each after teardown and a
// forced collection (the previous stack's garbage is not this set-up's
// cost), and returns the median process CPU seconds of one set-up.
func setupSeconds(n int, teardown, setup func() error) (float64, error) {
	v := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if err := teardown(); err != nil {
			return 0, err
		}
		runtime.GC()
		t0 := takeProcSnap()
		if err := setup(); err != nil {
			return 0, err
		}
		v = append(v, takeProcSnap().sub(t0).cpu.Seconds())
	}
	slices.Sort(v)
	return v[len(v)/2], nil
}
