package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dbisim/pkg/dbi"
	"dbisim/pkg/dbiproto"
)

// The traced service run records three kinds of span, all in
// nanoseconds from one base time and all keyed by (connection, request
// sequence number):
//
//   - client: the dbiclient call, from the actual send to the answer
//     (the reqRec of each request);
//   - server: from the Read that delivers a request frame to the Write
//     of its response, seen through a net.Conn wrapper handed to
//     ServeBinary. The span closes when the Write is issued: on
//     loopback the client can hold its answer before the Write
//     returns, which broke client RTT ≥ server span for 65 of 112,500
//     requests in one serve_write run when the span closed on return;
//   - tracker: the dbi.Batcher call the server makes for the frame,
//     seen through a wrapper handed to dbiserve.New.
//
// Spans stay in memory and are written out when the run ends.

// tracer owns every span of a traced run.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	conns []*tracedConn // by accept order
	track [serveConns]trackLog
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// frameSpan is the server's handling of one request frame.
type frameSpan struct {
	Seq   uint32 `json:"seq"`
	Op    byte   `json:"op"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	In    int    `json:"bytes_in"`
	Out   int    `json:"bytes_out"`
}

// trackSpan is one tracker batch call.
type trackSpan struct {
	Op    byte  `json:"op"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	Keys  int32 `json:"keys"`
	Ret   int32 `json:"ret"`
}

type trackLog struct {
	mu    sync.Mutex
	spans []trackSpan
}

// tracedListener hands ServeBinary connections that record frame spans.
type tracedListener struct {
	net.Listener
	t *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{Conn: c, t: l.t}
	l.t.mu.Lock()
	l.t.conns = append(l.t.conns, tc)
	l.t.mu.Unlock()
	return tc, nil
}

// tracedConn follows the frame boundaries of the incoming byte stream.
// A frame's span opens at the Read that completes it and closes when
// the Write of its response is issued; responses come in request order,
// one Write each.
type tracedConn struct {
	net.Conn
	t *tracer

	mu     sync.Mutex
	frames []frameSpan
	closed int // frames whose response has been written

	hdr  [10]byte // length, version, op, seq
	hdrN int
	rest int // payload bytes of the current frame still to come
	cur  frameSpan
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.scan(p[:n], since(c.t.base))
	}
	return n, err
}

func (c *tracedConn) scan(b []byte, now int64) {
	for len(b) > 0 {
		if c.hdrN < len(c.hdr) {
			k := copy(c.hdr[c.hdrN:], b)
			c.hdrN += k
			b = b[k:]
			if c.hdrN < len(c.hdr) {
				return
			}
			length := int(binary.LittleEndian.Uint32(c.hdr[0:4]))
			c.rest = length - 6
			c.cur = frameSpan{Op: c.hdr[5], Seq: binary.LittleEndian.Uint32(c.hdr[6:10]), In: 4 + length}
		} else {
			k := min(c.rest, len(b))
			c.rest -= k
			b = b[k:]
		}
		if c.rest <= 0 {
			c.cur.Start = now
			c.mu.Lock()
			c.frames = append(c.frames, c.cur)
			c.mu.Unlock()
			c.hdrN = 0
		}
	}
}

func (c *tracedConn) Write(p []byte) (int, error) {
	now := since(c.t.base)
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	if c.closed < len(c.frames) {
		f := &c.frames[c.closed]
		f.End, f.Out = now, n
		c.closed++
	}
	c.mu.Unlock()
	return n, err
}

// tracedBatcher times every batch call the server makes. Its key range
// names the connection the call serves.
type tracedBatcher struct {
	*dbi.Sharded
	t *tracer
}

func (b *tracedBatcher) record(op byte, keys []dbi.Key, start int64, ret int) {
	end := since(b.t.base)
	if len(keys) == 0 {
		return
	}
	owner := uint64(keys[0]) >> 32
	if owner >= serveConns {
		return
	}
	l := &b.t.track[owner]
	l.mu.Lock()
	l.spans = append(l.spans, trackSpan{Op: op, Start: start, End: end, Keys: int32(len(keys)), Ret: int32(ret)})
	l.mu.Unlock()
}

func (b *tracedBatcher) SetDirtyBatch(keys []dbi.Key, dst []dbi.Key) []dbi.Key {
	start := since(b.t.base)
	out := b.Sharded.SetDirtyBatch(keys, dst)
	b.record(dbiproto.OpSet, keys, start, len(out)-len(dst))
	return out
}

func (b *tracedBatcher) IsDirtyBatch(keys []dbi.Key, dst []bool) []bool {
	start := since(b.t.base)
	out := b.Sharded.IsDirtyBatch(keys, dst)
	b.record(dbiproto.OpIsDirty, keys, start, 0)
	return out
}

func (b *tracedBatcher) FlushRowsInto(keys []dbi.Key, dst []dbi.Key) []dbi.Key {
	start := since(b.t.base)
	out := b.Sharded.FlushRowsInto(keys, dst)
	b.record(dbiproto.OpFlush, keys, start, len(out)-len(dst))
	return out
}

// keyed reports whether the server answers op with one tracker call.
func keyed(op byte) bool {
	return op == dbiproto.OpSet || op == dbiproto.OpIsDirty || op == dbiproto.OpFlush
}

// joined is one request's three spans.
type joined struct {
	Client clientSpan `json:"client"`
	Server frameSpan  `json:"server"`
	Track  trackSpan  `json:"tracker"`
}

// clientSpan is one client request.
type clientSpan struct {
	Conn int    `json:"conn"`
	Seq  uint32 `json:"seq"`
	Op   byte   `json:"op"`
	Due  int64  `json:"due_ns"`
	Sent int64  `json:"sent_ns"`
	Done int64  `json:"done_ns"`
	OK   bool   `json:"ok"`
}

// join matches each client request of the window to its server frame
// by sequence number, and to its tracker call by order among the
// connection's keyed frames. firstSeq[ci] is the sequence number of
// window[ci][0].
func (t *tracer) join(window [][]reqRec, firstSeq []uint32) ([]joined, error) {
	t.mu.Lock()
	conns := append([]*tracedConn(nil), t.conns...)
	t.mu.Unlock()
	if len(conns) != len(window) {
		return nil, fmt.Errorf("server accepted %d connections, clients used %d", len(conns), len(window))
	}
	var out []joined
	for ci, recs := range window {
		c := conns[ci]
		c.mu.Lock()
		frames := append([]frameSpan(nil), c.frames[:c.closed]...)
		c.mu.Unlock()
		l := &t.track[ci]
		l.mu.Lock()
		track := append([]trackSpan(nil), l.spans...)
		l.mu.Unlock()

		bySeq := map[uint32]int{}
		trackOf := map[uint32]int{}
		k := 0
		for i, f := range frames {
			bySeq[f.Seq] = i
			if keyed(f.Op) {
				trackOf[f.Seq] = k
				k++
			}
		}
		if k != len(track) {
			return nil, fmt.Errorf("connection %d: %d keyed frames but %d tracker calls", ci, k, len(track))
		}
		for i, r := range recs {
			seq := firstSeq[ci] + uint32(i)
			fi, ok := bySeq[seq]
			if !ok {
				return nil, fmt.Errorf("connection %d: no server frame for request %d", ci, seq)
			}
			f := frames[fi]
			if f.Op != r.op {
				return nil, fmt.Errorf("connection %d request %d: server saw op %#x, client sent %#x", ci, seq, f.Op, r.op)
			}
			c := clientSpan{Conn: ci, Seq: seq, Op: r.op, Due: r.due, Sent: r.sent, Done: r.done, OK: r.ok}
			out = append(out, joined{Client: c, Server: f, Track: track[trackOf[seq]]})
		}
	}
	return out, nil
}

func runServeTraced(a args, spec *serveSpec) *result {
	res := &result{metrics: map[string]float64{}}
	_, sib, err := runUntraced(a)
	if err != nil {
		res.problem("%v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	tc := newTracer()
	r, err := newServeRun(ctx, a, spec, tc, nil)
	if r != nil {
		defer r.svc.close()
	}
	if err != nil {
		res.problem("set up: %v", err)
		return res
	}
	r.res = res

	// Warm the tracker and connections with the bursts the untraced run
	// starts with, then trace the hi rate.
	r.bursts(ctx)

	firstSeq := make([]uint32, serveConns)
	for i, c := range r.svc.conns {
		firstSeq[i] = c.seq + 1
	}
	st0 := r.svc.tr.Stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	window := r.recs.take(perConn(spec.hi, hiDur(a.seconds)))
	runPaced(ctx, r.base, r.svc.conns, spec.hi, window)
	runtime.ReadMemStats(&ms1)
	st1 := r.svc.tr.Stats()
	time.Sleep(phaseGap)
	r.check()
	r.tally()
	hi := summarize(window, hiDur(a.seconds))

	js, err := tc.join(window, firstSeq)
	if err != nil {
		res.problem("join spans: %v", err)
	}
	m := res.metrics
	var late, rtt, residual, self, set, flush, dirty []float64
	var busy, in, out, keys float64
	violations := 0
	first, last := int64(1<<62), int64(0)
	for _, j := range js {
		c, s, t := j.Client, j.Server, j.Track
		cr, sr, tr := c.Done-c.Sent, s.End-s.Start, t.End-t.Start
		if cr < sr || sr < tr {
			violations++
		}
		late = append(late, float64(c.Sent-c.Due)/1e3)
		rtt = append(rtt, float64(cr)/1e3)
		residual = append(residual, float64(cr-sr)/1e3)
		self = append(self, float64(sr-tr)/1e3)
		switch t.Op {
		case dbiproto.OpSet:
			set = append(set, float64(tr)/1e3)
		case dbiproto.OpFlush:
			flush = append(flush, float64(tr)/1e3)
		case dbiproto.OpIsDirty:
			dirty = append(dirty, float64(tr)/1e3)
		}
		busy += float64(sr)
		in += float64(s.In)
		out += float64(s.Out)
		keys += float64(t.Keys)
		first = min(first, c.Due)
		last = max(last, c.Done)
	}
	if violations > 0 {
		res.problem("%d of %d requests break client RTT ≥ server span ≥ tracker span", violations, len(js))
	}
	n := float64(max(len(js), 1))
	m["gen.late_us_p99"] = quantile(late, 0.99)
	m["dbiclient.rtt_us_p50"] = quantile(rtt, 0.5)
	m["dbiclient.rtt_us_p99"] = quantile(rtt, 0.99)
	m["net.residual_us_p50"] = quantile(residual, 0.5)
	m["net.bytes_in_per_req"] = in / n
	m["net.bytes_out_per_req"] = out / n
	m["dbiserve.self_us_p50"] = quantile(self, 0.5)
	m["dbiserve.self_us_p99"] = quantile(self, 0.99)
	if last > first {
		m["dbiserve.busy_share"] = busy / (float64(last-first) * serveConns)
	}
	m["pkgdbi.set_us_p50"] = quantile(set, 0.5)
	m["pkgdbi.set_us_p99"] = quantile(set, 0.99)
	m["pkgdbi.flush_us_p50"] = quantile(flush, 0.5)
	m["pkgdbi.dirty_us_p50"] = quantile(dirty, 0.5)
	m["pkgdbi.dirty_us_p99"] = quantile(dirty, 0.99)
	m["pkgdbi.keys_per_call"] = keys / n

	var setKeys float64
	for _, rs := range window {
		for _, q := range rs {
			if q.op == dbiproto.OpSet {
				setKeys += float64(q.nkeys)
			}
		}
	}
	perK := func(v uint64) float64 {
		if setKeys == 0 {
			return 0
		}
		return float64(v) / (setKeys / 1000)
	}
	m["dbi.inserts_per_kset"] = perK(st1.Inserts - st0.Inserts)
	m["dbi.evicted_keys_per_kset"] = perK(st1.EvictedKeys - st0.EvictedKeys)
	if ev := st1.Evictions - st0.Evictions; ev > 0 {
		m["dbi.keys_per_eviction"] = float64(st1.EvictedKeys-st0.EvictedKeys) / float64(ev)
	}
	m["runtime.alloc_bytes_per_req"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	m["tracing.overhead_p50_us_hi"] = hi.p50 - sib["p50_us_hi"]
	m["tracing.overhead_p99_us_hi"] = hi.p99 - sib["p99_us_hi"]
	res.note("traced hi rate %.0f req/s: n=%d p50=%.0fus p99=%.0fus (untraced %.0fus / %.0fus); %d requests joined, %d reconcile violations",
		spec.hi, hi.n, hi.p50, hi.p99, sib["p50_us_hi"], sib["p99_us_hi"], len(js), violations)

	writeSpans(res, a, map[string]any{"env": environment(a), "requests": js})
	return res
}

// traceDir is where traced runs write their spans, relative to the
// directory the benchmark runs in; run.sh keeps .bench_build/ there.
const traceDir = ".bench_build/traces"

// writeSpans writes the traced run's spans to traceDir.
func writeSpans(res *result, a args, doc map[string]any) {
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", a.workload, a.seed))
	b, err := json.Marshal(doc)
	if err == nil {
		err = os.MkdirAll(traceDir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		res.problem("write spans: %v", err)
		return
	}
	res.note("spans written to %s", path)
}
