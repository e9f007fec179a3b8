package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"dbisim/internal/dbiserve"
	"dbisim/internal/telemetry"
	"dbisim/pkg/dbi"
	"dbisim/pkg/dbiclient"
	"dbisim/pkg/dbiproto"
)

const (
	serveConns  = 2
	serveShards = 8 // dbiserved's default
	// latencyLimit is the p99-from-due limit a ladder rung must meet,
	// the limit of the CI loadtest gate.
	latencyLimit = 5 * time.Millisecond
	// backlogLimit is how much a phase's median send lateness may grow
	// from its first window to its last before the generator counts as
	// falling behind its schedule.
	backlogLimit = time.Millisecond
	// phaseGap lets queues drain between phases.
	phaseGap = 100 * time.Millisecond
	// steadyTolerance bounds how far serve_write's evicted keys per
	// 1000 set keys may differ between the two halves of the timed
	// window, relative to the whole window's figure.
	steadyTolerance = 0.10
)

// serveSpec is one open-loop service workload. Rates are requests per
// second over both connections. The ladder that max_rps climbs is lo,
// hi, then above, in that order.
type serveSpec struct {
	rows   int // tracker row capacity
	lo, hi float64
	above  []float64
	burst  int // closed-loop requests per connection in one timed burst
	write  bool
	plan   func(seed int64, conn int) (*keyPlan, error)
}

var serveSpecs = map[string]*serveSpec{
	"serve_write": {
		rows: 2048, lo: 10000, hi: 20000,
		above: []float64{25000, 30000, 35000, 40000, 45000, 50000, 55000, 60000},
		burst: 10000, write: true, plan: writePlan,
	},
	"serve_read": {
		rows: 1 << 16, lo: 10000, hi: 20000,
		above: []float64{25000, 30000, 35000, 40000, 45000, 50000, 55000, 60000},
		burst: 10000, plan: readPlan,
	},
}

// burstReps is how many closed-loop bursts a run times; wall_s is their
// median.
const burstReps = 15

// Phase lengths as shares of --seconds.
func loDur(s float64) time.Duration   { return time.Duration(0.15 * s * float64(time.Second)) }
func hiDur(s float64) time.Duration   { return time.Duration(0.20 * s * float64(time.Second)) }
func rungDur(s float64) time.Duration { return time.Duration(0.06 * s * float64(time.Second)) }

// reqRec is one timed request, in nanoseconds from the run's base time.
// A closed-loop request is due when it is sent.
type reqRec struct {
	due, sent, done int64
	op              byte
	ok              bool
	nkeys, nret     int32 // keys sent; keys returned (evicted or flushed)
}

// conn is one client connection and the tallies of everything it
// received.
type conn struct {
	idx  int
	cl   *dbiclient.Client
	plan *keyPlan
	sets []*bitset // every connection's planned set keys (serve_write)
	next int       // pool cursor
	seq  uint32    // calls made on cl, which is the frame sequence number

	evicted, flushed uint64
	wrong            int // requests with a wrong or foreign answer
	firstWrong       string
}

func (c *conn) ping(ctx context.Context) error {
	c.seq++
	return c.cl.Ping(ctx)
}

func (c *conn) nextRequest() request {
	r := c.plan.pool[c.next]
	c.next = (c.next + 1) % len(c.plan.pool)
	return r
}

// do sends one request and checks its answer. ok is false on an error
// frame, a timeout or a wrong answer.
func (c *conn) do(ctx context.Context, r request) (nret int, ok bool) {
	c.seq++
	switch r.op {
	case dbiproto.OpSet:
		ev, err := c.cl.SetDirty(ctx, r.keys)
		if err != nil {
			return 0, false
		}
		c.evicted += uint64(len(ev))
		ok = c.checkReturned(ev)
		if c.plan.dirty != nil {
			for _, k := range r.keys {
				c.plan.dirty.set(k - c.plan.base)
			}
		}
		return len(ev), ok
	case dbiproto.OpFlush:
		fl, err := c.cl.FlushRows(ctx, r.keys)
		if err != nil {
			return 0, false
		}
		c.flushed += uint64(len(fl))
		return len(fl), c.checkReturned(fl)
	case dbiproto.OpIsDirty:
		ans, err := c.cl.IsDirty(ctx, r.keys)
		if err != nil {
			return 0, false
		}
		if len(ans) != len(r.keys) {
			return 0, c.wrongAnswer("IsDirty answered %d of %d keys", len(ans), len(r.keys))
		}
		for i, k := range r.keys {
			if want := c.plan.dirty.test(k - c.plan.base); ans[i] != want {
				return 0, c.wrongAnswer("IsDirty(%#x) = %v, want %v", k, ans[i], want)
			}
		}
		return 0, true
	}
	return 0, c.wrongAnswer("unplanned opcode %#x", r.op)
}

// checkReturned reports whether every evicted or flushed key is one the
// workload sets. The read workload expects none at all.
func (c *conn) checkReturned(keys []uint64) bool {
	for _, k := range keys {
		owner := k >> 32
		if owner >= uint64(len(c.sets)) || c.sets[owner] == nil || !c.sets[owner].test(k&(1<<32-1)) {
			return c.wrongAnswer("returned key %#x was never set by the workload", k)
		}
	}
	return true
}

func (c *conn) wrongAnswer(format string, a ...any) bool {
	if c.wrong == 0 {
		c.firstWrong = fmt.Sprintf(format, a...)
	}
	c.wrong++
	return false
}

// service is the server under test plus its two connections.
type service struct {
	tr    *dbi.Sharded
	ln    net.Listener
	done  chan error
	conns []*conn
}

// startService builds the tracker, the loopback listener and the
// server, then dials and pings both connections. setup runs from the
// tracker's construction until the first Ping is answered.
func startService(ctx context.Context, spec *serveSpec, tc *tracer) (svc *service, setup time.Duration, err error) {
	start := time.Now()
	tr, err := dbi.NewSharded(serveShards, dbi.WithRows(spec.rows))
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	var b dbi.Batcher = tr
	if tc != nil {
		b = &tracedBatcher{Sharded: tr, t: tc}
		ln = &tracedListener{Listener: ln, t: tc}
	}
	srv := dbiserve.New(b, telemetry.NewRegistry())
	svc = &service{tr: tr, ln: ln, done: make(chan error, 1)}
	go func() { svc.done <- srv.ServeBinary(ln) }()
	for i := 0; i < serveConns; i++ {
		cl, err := dbiclient.Dial(ctx, ln.Addr().String())
		if err != nil {
			svc.close()
			return nil, 0, fmt.Errorf("dial: %w", err)
		}
		c := &conn{idx: i, cl: cl}
		svc.conns = append(svc.conns, c)
		// Pinging before the next dial makes accept order equal
		// connection index, which the traced run's join relies on.
		if err := c.ping(ctx); err != nil {
			svc.close()
			return nil, 0, fmt.Errorf("ping: %w", err)
		}
		if i == 0 {
			setup = time.Since(start)
		}
	}
	return svc, setup, nil
}

// close shuts the connections and the listener and waits for the
// accept loop to return.
func (s *service) close() error {
	for _, c := range s.conns {
		c.cl.Close()
	}
	s.ln.Close()
	return <-s.done
}

// sleepUntil blocks the calling OS thread until due. Nanosleep
// overshoots by tens of microseconds where the runtime's timers, parked
// in epoll with millisecond timeouts, overshoot by a millisecond or
// more.
func sleepUntil(base time.Time, due int64) {
	for {
		d := due - since(base)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the clock
	}
}

// runPaced sends an open-loop schedule at rate for dur: each connection
// paces itself from its own goroutine, which holds an OS thread while it
// sleeps, and the connections' schedules interleave. The goroutine is
// not locked to that thread: a locked goroutine's every response wakes
// it through a thread handoff, which on two CPUs raised p50 from due
// time at 10k req/s from 78 µs to 106 µs and saturated serve_read near
// 30k req/s instead of 55k.
func runPaced(ctx context.Context, base time.Time, conns []*conn, rate float64, recs [][]reqRec) {
	period := float64(len(conns)) * 1e9 / rate
	t0 := since(base) + int64(2*time.Millisecond)
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			off := float64(ci) * 1e9 / rate
			for i := range recs[ci] {
				due := t0 + int64(off+float64(i)*period)
				sleepUntil(base, due)
				r := c.nextRequest()
				sent := since(base)
				nret, ok := c.do(ctx, r)
				recs[ci][i] = reqRec{due: due, sent: sent, done: since(base), op: r.op, ok: ok,
					nkeys: int32(len(r.keys)), nret: int32(nret)}
			}
		}(ci, c)
	}
	wg.Wait()
}

// runClosed sends len(recs[ci]) requests on each connection back to
// back and returns the wall time until both connections are done.
func runClosed(ctx context.Context, base time.Time, conns []*conn, recs [][]reqRec) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			for i := range recs[ci] {
				r := c.nextRequest()
				sent := since(base)
				nret, ok := c.do(ctx, r)
				recs[ci][i] = reqRec{due: sent, sent: sent, done: since(base), op: r.op, ok: ok,
					nkeys: int32(len(r.keys)), nret: int32(nret)}
			}
		}(ci, c)
	}
	wg.Wait()
	return time.Since(start)
}

// recArena hands out the request records of every phase from one
// buffer per connection, outside the Go heap and written before the
// service starts, so neither the process's memory above its baseline
// nor the collector's pacing depends on how many requests a run times.
type recArena struct {
	buf  [][]reqRec
	used int
}

func newRecArena(conns, n int) (*recArena, error) {
	a := &recArena{buf: make([][]reqRec, conns)}
	for i := range a.buf {
		b, err := offHeap[reqRec](n)
		if err != nil {
			return nil, err
		}
		for j := range b {
			b[j].due = -1 // touch every page now
		}
		a.buf[i] = b
	}
	return a, nil
}

// take returns the next n records of every connection.
func (a *recArena) take(n int) [][]reqRec {
	out := make([][]reqRec, len(a.buf))
	for i, b := range a.buf {
		out[i] = b[a.used : a.used+n : a.used+n]
	}
	a.used += n
	return out
}

// timed returns every record handed out so far, per connection.
func (a *recArena) timed() [][]reqRec {
	out := make([][]reqRec, len(a.buf))
	for i, b := range a.buf {
		out[i] = b[:a.used]
	}
	return out
}

// perConn is how many requests each connection sends at rate for dur.
func perConn(rate float64, dur time.Duration) int {
	return int(dur.Seconds() * rate / serveConns)
}

// maxRecords bounds the records one connection needs in a run that
// climbs the whole ladder.
func (s *serveSpec) maxRecords(seconds float64) int {
	n := burstReps*s.burst + perConn(s.lo, loDur(seconds)) + perConn(s.hi, hiDur(seconds))
	for _, r := range s.above {
		n += perConn(r, rungDur(seconds))
	}
	return n
}

// phaseWindow is the length of the consecutive windows, by due time, a
// paced phase is cut into. A phase's p50 and p99 are medians over its
// windows of each window's percentile, so a host stall moves the
// windows it hits, not the phase. On this kind of shared two-vCPU host
// stalls of several milliseconds arrive a few times a second, and a
// plain phase-wide p99 varied 10x between runs of one seed.
const phaseWindow = 100 * time.Millisecond

// phaseStats summarizes one phase. Latencies are from due time; a
// failed request counts as missing every limit.
type phaseStats struct {
	n, fails int
	windows  int
	p50, p99 float64 // µs, medians over the phase's windows
	lateP99  float64 // µs, send lateness over the whole phase
	rate     float64 // completed requests per second
	behind   bool    // send lateness grew by more than backlogLimit
}

func (p phaseStats) pass() bool {
	return p.fails == 0 && p.p99 <= float64(latencyLimit.Microseconds()) && !p.behind
}

// summarize cuts a paced phase of length dur into windows. The
// connections send on interleaved schedules of equal length, so a
// window is the same index range of every connection.
func summarize(recs [][]reqRec, dur time.Duration) phaseStats {
	var st phaseStats
	n := len(recs[0])
	if n == 0 {
		return st
	}
	st.windows = max(1, int(dur/phaseWindow))
	var lat, late, p50s, p99s, lateMed []float64
	first, last := int64(math.MaxInt64), int64(0)
	for w := 0; w < st.windows; w++ {
		lat, late = lat[:0], late[:0]
		for _, rs := range recs {
			for _, r := range rs[w*n/st.windows : (w+1)*n/st.windows] {
				l := float64(r.done-r.due) / 1e3
				if !r.ok {
					st.fails++
					l = math.Inf(1)
				}
				lat = append(lat, l)
				late = append(late, float64(r.sent-r.due)/1e3)
				first, last = min(first, r.due), max(last, r.done)
			}
		}
		st.n += len(lat)
		p50s = append(p50s, quantile(lat, 0.5))
		p99s = append(p99s, quantile(lat, 0.99))
		lateMed = append(lateMed, median(late))
	}
	st.p50, st.p99 = median(p50s), median(p99s)
	st.behind = lateMed[len(lateMed)-1]-lateMed[0] > float64(backlogLimit.Microseconds())
	late = late[:0]
	for _, rs := range recs {
		for _, r := range rs {
			late = append(late, float64(r.sent-r.due)/1e3)
		}
	}
	st.lateP99 = quantile(late, 0.99)
	if last > first {
		st.rate = float64(st.n) / (float64(last-first) / 1e9)
	}
	return st
}

// serveRun is the state of one service run.
type serveRun struct {
	spec  *serveSpec
	base  time.Time
	svc   *service
	res   *result
	stat0 dbi.Stats
	recs  *recArena // every timed request
	// baseRSS is the resident set, MiB, once the key plans and request
	// records are written, before the service starts; harnessPeak is
	// the peak resident set until then.
	baseRSS, harnessPeak float64
}

// newServeRun generates the key plans and request records, starts the
// service (setupReps times when setups is non-nil, keeping the last)
// and pre-fills it. When the pre-fill fails it returns the run too, so
// the caller can close it.
func newServeRun(ctx context.Context, a args, spec *serveSpec, tc *tracer, setups *[]float64) (*serveRun, error) {
	plans := make([]*keyPlan, serveConns)
	sets := make([]*bitset, serveConns)
	for i := range plans {
		p, err := spec.plan(a.seed, i)
		if err != nil {
			return nil, err
		}
		plans[i], sets[i] = p, p.set
	}
	recs, err := newRecArena(serveConns, spec.maxRecords(a.seconds))
	if err != nil {
		return nil, err
	}
	harnessPeak := statusMiB("VmHWM")
	// Hand the plans' freed temporaries back to the kernel, so the
	// program under test cannot reuse them unseen and every page it
	// needs shows above the baseline.
	debug.FreeOSMemory()
	baseRSS := statusMiB("VmRSS")
	reps := 1
	if setups != nil {
		reps = setupReps
	}
	var svc *service
	idle := runtime.NumGoroutine()
	for i := 0; i < reps; i++ {
		if svc != nil {
			if err := svc.close(); err != nil {
				return nil, err
			}
			svc = nil
			// Collect the previous tracker untimed, once the server's
			// connection goroutines that hold it have returned, and
			// hand its pages back to the kernel, so each set-up faults
			// in its tracker as a fresh server does. Reusing the pages
			// instead made the median set-up of serve_read 0.29 ms in
			// some runs and 0.55 ms in others, as the runtime's
			// scavenger did or did not release them in between.
			for end := time.Now().Add(time.Second); runtime.NumGoroutine() > idle && time.Now().Before(end); {
				time.Sleep(time.Millisecond)
			}
			debug.FreeOSMemory()
		}
		s, d, err := startService(ctx, spec, tc)
		if err != nil {
			return nil, err
		}
		svc = s
		if setups != nil {
			*setups = append(*setups, d.Seconds())
		}
	}
	for i, c := range svc.conns {
		c.plan, c.sets = plans[i], sets
	}
	r := &serveRun{spec: spec, base: time.Now(), svc: svc, stat0: svc.tr.Stats(),
		recs: recs, baseRSS: baseRSS, harnessPeak: harnessPeak}
	if tc != nil {
		r.base = tc.base
	}
	return r, r.prefill(ctx)
}

// prefill brings the tracker to its steady state before timing:
// serve_write sets keys until the tracker is full and has evicted as
// many rows as it holds (flushes free entries, so it is never entirely
// valid), serve_read loads its pre-dirtied set.
func (r *serveRun) prefill(ctx context.Context) error {
	for _, c := range r.svc.conns {
		for _, q := range c.plan.prefill {
			if _, ok := c.do(ctx, q); !ok {
				return fmt.Errorf("pre-fill request failed on connection %d", c.idx)
			}
		}
		c.plan.prefill = nil // garbage from here on
	}
	if !r.spec.write {
		return nil
	}
	for i := 0; i < 4*poolRequests; i++ {
		c := r.svc.conns[i%serveConns]
		if _, ok := c.do(ctx, c.nextRequest()); !ok {
			return fmt.Errorf("pre-fill request failed on connection %d", c.idx)
		}
		if i%64 == 63 {
			if st := r.svc.tr.Stats(); st.Evictions >= uint64(st.Rows) {
				return nil
			}
		}
	}
	return errors.New("pre-fill never filled the tracker")
}

func (r *serveRun) paced(ctx context.Context, rate float64, dur time.Duration) phaseStats {
	recs := r.recs.take(perConn(rate, dur))
	runPaced(ctx, r.base, r.svc.conns, rate, recs)
	time.Sleep(phaseGap)
	return summarize(recs, dur)
}

// bursts times burstReps closed-loop bursts and returns their wall
// times in seconds.
func (r *serveRun) bursts(ctx context.Context) []float64 {
	var walls []float64
	for i := 0; i < burstReps; i++ {
		walls = append(walls, runClosed(ctx, r.base, r.svc.conns, r.recs.take(r.spec.burst)).Seconds())
		time.Sleep(phaseGap)
	}
	return walls
}

// check applies the output checks to everything the connections
// received since the service started.
func (r *serveRun) check() {
	res := r.res
	st := r.svc.tr.Stats()
	var evicted, flushed uint64
	for _, c := range r.svc.conns {
		evicted += c.evicted
		flushed += c.flushed
		if c.wrong > 0 {
			res.problem("connection %d: %d wrong answers, first: %s", c.idx, c.wrong, c.firstWrong)
		}
	}
	if d := st.EvictedKeys - r.stat0.EvictedKeys; d != evicted {
		res.problem("clients received %d evicted keys, tracker evicted %d", evicted, d)
	}
	if d := st.FlushedKeys - r.stat0.FlushedKeys; d != flushed {
		res.problem("clients received %d flushed keys, tracker flushed %d", flushed, d)
	}
	if !r.spec.write {
		if d := st.Evictions - r.stat0.Evictions; d != 0 {
			res.problem("read workload evicted %d rows, want 0", d)
		}
		return
	}
	// Steady state: evicted keys per 1000 set keys agree between the
	// two halves of the timed window. The connections run the same
	// phases in lockstep, so each one's halves are the window's.
	var set, ev [2]float64
	for _, rs := range r.recs.timed() {
		for i, q := range rs {
			if q.op == dbiproto.OpSet {
				h := 2 * i / len(rs)
				set[h] += float64(q.nkeys)
				ev[h] += float64(q.nret)
			}
		}
	}
	if set[0] == 0 || set[1] == 0 {
		res.problem("no SetDirty requests in a half of the timed window")
		return
	}
	h1, h2 := 1000*ev[0]/set[0], 1000*ev[1]/set[1]
	whole := 1000 * (ev[0] + ev[1]) / (set[0] + set[1])
	res.note("steady state: evicted keys per 1000 set keys %.1f (first half) %.1f (second half)", h1, h2)
	if whole == 0 || math.Abs(h1-h2) > steadyTolerance*whole {
		res.problem("not in steady state: evicted keys per 1000 set keys %.1f then %.1f", h1, h2)
	}
}

func (r *serveRun) tally() {
	for _, rs := range r.recs.timed() {
		for _, q := range rs {
			r.res.attempted++
			if !q.ok {
				r.res.failed++
			}
		}
	}
}

func runServe(a args, spec *serveSpec) *result {
	if a.trace {
		return runServeTraced(a, spec)
	}
	res := &result{metrics: map[string]float64{}}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	var setups []float64
	r, err := newServeRun(ctx, a, spec, nil, &setups)
	if r != nil {
		defer r.svc.close()
	}
	if err != nil {
		res.problem("set up: %v", err)
		return res
	}
	r.res = res

	walls := r.bursts(ctx)

	lo := r.paced(ctx, spec.lo, loDur(a.seconds))
	hi := r.paced(ctx, spec.hi, hiDur(a.seconds))
	// The peak is read before the ladder, whose length, and with it the
	// highest allocation rate, depends on the host's speed. The bursts
	// run first: timed right after the pre-fill instead, the paced
	// phases' p50 from due time fell from 63 µs to 41-50 µs in two of six
	// serve_read runs.
	peak := statusMiB("VmHWM")
	maxRPS := 0.0
	rungs := []phaseStats{lo, hi}
	if lo.pass() {
		maxRPS = lo.rate
		if hi.pass() {
			maxRPS = hi.rate
			for _, rate := range spec.above {
				st := r.paced(ctx, rate, rungDur(a.seconds))
				rungs = append(rungs, st)
				if !st.pass() {
					break
				}
				maxRPS = st.rate
			}
		}
	}
	r.check()
	r.tally()

	m := res.metrics
	m["wall_s"] = median(walls)
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = peak - r.baseRSS
	if peak <= r.harnessPeak {
		res.problem("the peak resident set, %.1f MiB, was reached before the service started", peak)
	}
	m["max_rps"] = maxRPS
	m["p50_us_lo"], m["p99_us_lo"] = lo.p50, lo.p99
	m["p50_us_hi"], m["p99_us_hi"] = hi.p50, hi.p99
	if maxRPS == 0 {
		res.note("max_rps: even the lo rate %.0f req/s missed the limits", spec.lo)
	}
	res.note("bursts: %d of %d requests closed-loop, wall %v s", burstReps, serveConns*spec.burst, walls)
	ladder := append([]float64{spec.lo, spec.hi}, spec.above...)
	for i, st := range rungs {
		res.note("rate %6.0f req/s: n=%d in %d windows, achieved=%.0f p50=%.0fus p99=%.0fus late_p99=%.0fus fails=%d behind=%v pass=%v",
			ladder[i], st.n, st.windows, st.rate, st.p50, st.p99, st.lateP99, st.fails, st.behind, st.pass())
	}
	res.note("setup_s: median of %d set-ups, ms %.3f", len(setups), scaled(setups, 1e3))
	res.note("rss: peak %.1f MiB, %.1f MiB of it resident before the service started (key plans, request records)", peak, r.baseRSS)
	return res
}
