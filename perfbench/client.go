package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"znscache/internal/server"
	"znscache/internal/workload"
)

// loadStats is one load window's client-side outcome.
type loadStats struct {
	ops, failed int64 // requests sent, and those answered wrongly or not at all
	gets, hits  int64
	elapsed     time.Duration
	rtt         samples // closed loop: one per pipelined Exchange
	get, set    samples // open loop: per request, from its due time
	late        samples // open loop: burst send time minus its due time
	firstErr    error
	stored      storedSet // what the loop's sets and fills stored
	// clientCPU is the CPU time of the connection goroutines themselves,
	// when the loop measured it.
	clientCPU time.Duration
	// subOps counts the closed loop's completed requests per second of the
	// window.
	subOps []int64
}

func (s *loadStats) merge(o *loadStats) {
	s.ops += o.ops
	s.failed += o.failed
	s.gets += o.gets
	s.hits += o.hits
	s.clientCPU += o.clientCPU
	s.stored.merge(&o.stored)
	s.rtt.merge(&o.rtt)
	s.late.merge(&o.late)
	s.get.merge(&o.get)
	s.set.merge(&o.set)
	for len(s.subOps) < len(o.subOps) {
		s.subOps = append(s.subOps, 0)
	}
	for i, n := range o.subOps {
		s.subOps[i] += n
	}
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// storedSet is a window's measured working set: the distinct keys it
// stored and the bytes of every value it stored.
type storedSet struct {
	keys     map[string]struct{}
	bytes, n int64
}

func (s *storedSet) add(key string, size int) {
	if s.keys == nil {
		s.keys = map[string]struct{}{}
	}
	s.keys[key] = struct{}{}
	s.bytes += int64(size)
	s.n++
}

func (s *storedSet) merge(o *storedSet) {
	if s.keys == nil {
		s.keys = map[string]struct{}{}
	}
	for k := range o.keys {
		s.keys[k] = struct{}{}
	}
	s.bytes += o.bytes
	s.n += o.n
}

// size is the distinct keys stored times the mean stored value.
func (s *storedSet) size() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(len(s.keys)) * float64(s.bytes) / float64(s.n)
}

// countOp adds n requests completed at t to the second of the closed-loop
// window (start, length d) it falls in.
func (s *loadStats) countOp(t, start time.Time, d time.Duration, n int) {
	if s.subOps == nil {
		s.subOps = make([]int64, max(1, int(d/time.Second)))
	}
	s.subOps[max(0, min(int(t.Sub(start)/time.Second), len(s.subOps)-1))] += int64(n)
}

// medianRate is the median over the window's seconds of the requests
// completed in each: a burst of noise from outside the process moves one
// second rather than the result.
func (s *loadStats) medianRate() float64 {
	v := make([]float64, len(s.subOps))
	for i, n := range s.subOps {
		v[i] = float64(n)
	}
	slices.Sort(v)
	return v[len(v)/2]
}

// req is one request of a batch.
type req struct {
	kind   workload.OpKind
	key    string
	valLen int
	due    time.Time // open loop only
}

// loadConn is one connection's client state.
type loadConn struct {
	cl    *server.Client
	gen   *workload.BC
	vm    *valueMaker
	fills []req // read-through fills owed for get misses
	st    loadStats
}

func dialLoad(addr string, p serveParams, seed uint64) (*loadConn, error) {
	cl, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	cl.Timeout = 10 * time.Second
	return &loadConn{cl: cl, gen: p.gen(seed), vm: newValueMaker(seed)}, nil
}

// exchange sends batch, checks every response, and queues a fill for every
// get miss (due at the time the miss was seen). It returns the time the
// responses were complete; a transport error fails the whole batch.
func (c *loadConn) exchange(batch []req) (time.Time, error) {
	for _, q := range batch {
		switch q.kind {
		case workload.OpGet:
			c.cl.QueueGet(q.key, false)
		case workload.OpSet:
			v := c.vm.make(q.key, q.valLen)
			c.cl.QueueSet(q.key, 0, 0, v)
			c.st.stored.add(q.key, len(v))
		case workload.OpDelete:
			c.cl.QueueDelete(q.key)
		}
	}
	rs, err := c.cl.Exchange()
	done := time.Now()
	c.st.ops += int64(len(batch))
	if err != nil {
		c.st.failed += int64(len(batch))
		return done, err
	}
	for i, q := range batch {
		resp := rs[i]
		switch {
		case resp.Err != "":
			c.st.failed++
		case q.kind == workload.OpGet:
			c.st.gets++
			if !resp.Hit {
				c.fills = append(c.fills, req{kind: workload.OpSet, key: q.key, valLen: q.valLen, due: done})
			} else if checkValue(q.key, resp.Value) != nil {
				c.st.failed++
			} else {
				c.st.hits++
			}
		case q.kind == workload.OpSet && !resp.Hit:
			c.st.failed++ // NOT_STORED: the server refused a plain set
		}
	}
	return done, nil
}

// runConns runs fn on serveConns connections concurrently until each
// returns, and merges their stats.
func runConns(addr string, p serveParams, seed uint64, fn func(i int, c *loadConn)) (*loadStats, error) {
	conns := make([]*loadConn, serveConns)
	for i := range conns {
		c, err := dialLoad(addr, p, seed*16+uint64(i))
		if err != nil {
			return nil, err
		}
		defer c.cl.Close()
		conns[i] = c
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, c)
		}()
	}
	wg.Wait()
	out := &loadStats{elapsed: time.Since(start)}
	for _, c := range conns {
		out.merge(&c.st)
	}
	if out.firstErr != nil {
		return out, fmt.Errorf("load: %w", out.firstErr)
	}
	return out, nil
}

// closedLoop keeps servePipeline requests in flight per connection for d,
// timing every Exchange and counting completed requests per second. With
// clientCPU set, each connection goroutine runs locked to its own OS thread
// and the thread's CPU time is the client's share of the process CPU.
func closedLoop(addr string, seed uint64, p serveParams, d time.Duration, clientCPU bool) (*loadStats, error) {
	start := time.Now()
	deadline := start.Add(d)
	return runConns(addr, p, seed, func(_ int, c *loadConn) {
		if clientCPU {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPU()
			defer func() { c.st.clientCPU = threadCPU() - t0 }()
		}
		batch := make([]req, 0, servePipeline)
		for time.Now().Before(deadline) {
			batch = batch[:0]
			n := min(len(c.fills), servePipeline)
			batch = append(batch, c.fills[:n]...)
			c.fills = c.fills[:copy(c.fills, c.fills[n:])]
			for len(batch) < servePipeline {
				op := c.gen.Next()
				batch = append(batch, req{kind: op.Kind, key: op.Key, valLen: op.ValLen})
			}
			t0 := time.Now()
			done, err := c.exchange(batch)
			if err != nil {
				c.st.firstErr = err
				return
			}
			c.st.rtt.add(done.Sub(t0))
			c.st.countOp(done, start, d, len(batch))
		}
	})
}

// openTick is the open-loop schedule's period. The writer sleeps with a
// raw nanosleep: Go's timers on Linux wake with about a millisecond of
// granularity, which would add up to a tick of oversleep to every request.
const openTick = 250 * time.Microsecond

// openLoop offers p.openRate requests per second across serveConns
// connections for d. One writer goroutine wakes every openTick and writes,
// on every connection, the requests that fell due in the tick as one
// pipelined burst, never waiting for earlier responses; a reader goroutine
// per connection matches responses to requests in order. A request's
// latency runs from its due time to its response, so a late generator and
// a slow server both show up as latency rather than as a lower offered
// rate. A get miss owes a fill, which is due when the miss is read and
// rides the connection's next burst.
func openLoop(addr string, seed uint64, p serveParams, d time.Duration) (*loadStats, error) {
	perTick := p.openRate * openTick.Seconds() / serveConns
	start := time.Now()
	conns := make([]*openConn, serveConns)
	for i := range conns {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		defer nc.Close()
		conns[i] = &openConn{
			nc: nc, br: bufio.NewReaderSize(nc, 64<<10), bw: bufio.NewWriterSize(nc, 64<<10),
			gen: p.gen(seed*16 + uint64(i)), vm: newValueMaker(seed*16 + uint64(i)),
			inflight: make(chan []req, 1<<14),
		}
	}
	var wg sync.WaitGroup
	rerrs := make([]error, len(conns))
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rerrs[i] = c.read()
		}()
	}
	werr := writeOpen(conns, start, start.Add(d), perTick)
	wg.Wait()
	out := &loadStats{elapsed: time.Since(start)}
	for i, c := range conns {
		out.merge(&c.st)
		if err := errors.Join(werr, rerrs[i]); err != nil {
			return nil, fmt.Errorf("open loop: %w", err)
		}
	}
	return out, nil
}

// writeOpen is the open loop's schedule: every openTick, one burst per
// connection.
func writeOpen(conns []*openConn, next, deadline time.Time, perTick float64) error {
	defer func() {
		for _, c := range conns {
			close(c.inflight)
		}
	}()
	for ; next.Before(deadline); next = next.Add(openTick) {
		if wait := time.Until(next); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake only sends early
		}
		late := time.Since(next)
		for _, c := range conns {
			if err := c.burst(next, late, perTick); err != nil {
				return err
			}
		}
	}
	return nil
}

// openConn is one open-loop connection: the writer owns gen, vm, owed and
// the write side; the reader owns the read side; fills and st cross under
// mu.
type openConn struct {
	nc       net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	gen      *workload.BC
	vm       *valueMaker
	owed     float64
	inflight chan []req // bursts written, in order, awaiting responses

	mu    sync.Mutex
	fills []req
	st    loadStats
}

// burst writes the fills owed and the requests due at next.
func (c *openConn) burst(next time.Time, late time.Duration, perTick float64) error {
	c.mu.Lock()
	batch := append([]req(nil), c.fills...)
	c.fills = c.fills[:0]
	c.st.late.add(late)
	c.mu.Unlock()
	for c.owed += perTick; c.owed >= 1; c.owed-- {
		op := c.gen.Next()
		batch = append(batch, req{kind: op.Kind, key: op.Key, valLen: op.ValLen, due: next})
	}
	if len(batch) == 0 {
		return nil
	}
	for _, q := range batch {
		switch q.kind {
		case workload.OpGet:
			fmt.Fprintf(c.bw, "get %s\r\n", q.key)
		case workload.OpSet:
			v := c.vm.make(q.key, q.valLen)
			fmt.Fprintf(c.bw, "set %s 0 0 %d\r\n", q.key, len(v))
			c.bw.Write(v)            //nolint:errcheck // Flush reports it
			c.bw.WriteString("\r\n") //nolint:errcheck
		case workload.OpDelete:
			fmt.Fprintf(c.bw, "delete %s\r\n", q.key)
		}
	}
	c.inflight <- batch
	c.nc.SetWriteDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	return c.bw.Flush()
}

// read matches responses to the written bursts, checks every value, and
// records each request's latency from its due time.
func (c *openConn) read() error {
	for batch := range c.inflight {
		for _, q := range batch {
			c.nc.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
			hit, val, errLine, err := c.readResp(q.kind)
			done := time.Now()
			c.mu.Lock()
			c.st.ops++
			switch {
			case err != nil:
				c.st.failed++
			case errLine:
				c.st.failed++
			case q.kind == workload.OpGet:
				c.st.gets++
				c.st.get.add(done.Sub(q.due))
				if !hit {
					c.fills = append(c.fills, req{kind: workload.OpSet, key: q.key, valLen: q.valLen, due: done})
				} else if checkValue(q.key, val) != nil {
					c.st.failed++
				} else {
					c.st.hits++
				}
			case q.kind == workload.OpSet:
				c.st.set.add(done.Sub(q.due))
				if !hit {
					c.st.failed++
				}
			}
			c.mu.Unlock()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// readResp reads one response: for a get, whether it hit and the value;
// for a set or delete, whether it was stored or found. errLine reports a
// protocol error line from the server.
func (c *openConn) readResp(kind workload.OpKind) (hit bool, val []byte, errLine bool, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return false, nil, false, err
	}
	s := string(bytes.TrimRight(line, "\r\n"))
	switch {
	case strings.HasPrefix(s, "ERROR") || strings.HasPrefix(s, "CLIENT_ERROR") || strings.HasPrefix(s, "SERVER_ERROR"):
		return false, nil, true, nil
	case kind == workload.OpSet:
		return s == "STORED", nil, false, nil
	case kind == workload.OpDelete:
		return s == "DELETED", nil, s != "DELETED" && s != "NOT_FOUND", nil
	case s == "END":
		return false, nil, false, nil
	}
	f := strings.Fields(s)
	if len(f) < 4 || f[0] != "VALUE" {
		return false, nil, true, nil
	}
	n, perr := strconv.Atoi(f[3])
	if perr != nil {
		return false, nil, true, nil
	}
	val = make([]byte, n+2)
	if _, err := io.ReadFull(c.br, val); err != nil {
		return false, nil, false, err
	}
	if end, err := c.br.ReadSlice('\n'); err != nil || string(bytes.TrimRight(end, "\r\n")) != "END" {
		return false, nil, true, err
	}
	return true, val[:n], false, nil
}
