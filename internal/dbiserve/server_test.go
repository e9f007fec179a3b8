package dbiserve

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"dbisim/internal/telemetry"
	"dbisim/pkg/dbi"
	"dbisim/pkg/dbiclient"
	"dbisim/pkg/dbiproto"
)

// testServer boots one tracker behind both protocols on loopback.
func testServer(t *testing.T, opts ...dbi.Option) (*Server, *httptest.Server, string) {
	t.Helper()
	base := []dbi.Option{dbi.WithRows(1 << 12), dbi.WithRowSize(64)}
	tr, err := dbi.NewSharded(4, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(tr, telemetry.NewRegistry())
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.ServeBinary(ln)
	return srv, hs, ln.Addr().String()
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestBinaryKeyFramesAllocateNothing pins the binary path's steady
// state on an 8-shard tracker: once a connection's buffers have grown,
// a set, IsDirty or region frame of 8 keys, each naming a row of 22
// dirty keys, allocates nothing.
func TestBinaryKeyFramesAllocateNothing(t *testing.T) {
	tr, err := dbi.NewSharded(8, dbi.WithRows(1<<12), dbi.WithRowSize(64))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(tr, telemetry.NewRegistry())
	var keys []uint64
	for row := uint64(0); row < 8; row++ {
		for j := uint64(0); j < 22; j++ {
			tr.SetDirty(dbi.Key(row*64 + 3*j))
		}
		keys = append(keys, row*64)
	}
	payload := dbiproto.AppendKeys(nil, keys)
	for _, op := range []byte{dbiproto.OpSet, dbiproto.OpIsDirty, dbiproto.OpRegion} {
		f := dbiproto.Frame{Version: dbiproto.Version, Op: op, Seq: 1, Payload: payload}
		st := &connState{}
		var w []byte
		if n := testing.AllocsPerRun(100, func() { w = srv.handleFrame(w[:0], f, st) }); n != 0 {
			t.Errorf("op %#x: %v allocations per frame, want 0", op, n)
		}
	}
}

// TestRoundTripJSON exercises every v1 endpoint through the JSON
// client against known answers.
func TestRoundTripJSON(t *testing.T) {
	_, hs, _ := testServer(t)
	cl := dbiclient.NewJSON(hs.URL)
	ctx := ctxT(t)

	ev, err := cl.SetDirty(ctx, []uint64{1, 2, 65, 130})
	if err != nil || len(ev) != 0 {
		t.Fatalf("SetDirty: ev=%v err=%v", ev, err)
	}
	vs, err := cl.IsDirty(ctx, []uint64{1, 3, 65})
	if err != nil {
		t.Fatal(err)
	}
	if !vs[0] || vs[1] || !vs[2] {
		t.Fatalf("IsDirty = %v, want [true false true]", vs)
	}
	region, err := cl.Region(ctx, []uint64{0})
	if err != nil {
		t.Fatal(err)
	}
	if !sameU64(region, []uint64{1, 2}) {
		t.Fatalf("Region(0) = %v, want [1 2]", region)
	}
	fl, err := cl.FlushRows(ctx, []uint64{64})
	if err != nil {
		t.Fatal(err)
	}
	if !sameU64(fl, []uint64{65}) {
		t.Fatalf("FlushRows(64) = %v, want [65]", fl)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || st.RowSize != 64 || st.DirtyKeys != 3 || st.Flushes != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

// TestRoundTripBinary is the same exchange over the binary protocol,
// plus ping and pipelining.
func TestRoundTripBinary(t *testing.T) {
	_, _, baddr := testServer(t)
	ctx := ctxT(t)
	cl, err := dbiclient.Dial(ctx, baddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	ev, err := cl.SetDirty(ctx, []uint64{1, 2, 65, 130})
	if err != nil || len(ev) != 0 {
		t.Fatalf("SetDirty: ev=%v err=%v", ev, err)
	}
	vs, err := cl.IsDirty(ctx, []uint64{1, 3, 65})
	if err != nil {
		t.Fatal(err)
	}
	if !vs[0] || vs[1] || !vs[2] {
		t.Fatalf("IsDirty = %v", vs)
	}
	region, err := cl.Region(ctx, []uint64{0})
	if err != nil || !sameU64(region, []uint64{1, 2}) {
		t.Fatalf("Region(0) = %v err=%v", region, err)
	}
	fl, err := cl.FlushRows(ctx, []uint64{64})
	if err != nil || !sameU64(fl, []uint64{65}) {
		t.Fatalf("FlushRows(64) = %v err=%v", fl, err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtyKeys != 3 || st.Flushes != 1 {
		t.Fatalf("Stats = %+v", st)
	}

	// Pipelined burst: one write, answers in order.
	p := cl.Pipeline()
	p.SetDirty([]uint64{200, 201})
	p.IsDirty([]uint64{200, 999})
	p.FlushRows([]uint64{200})
	rs, err := p.Do(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("pipeline returned %d results", len(rs))
	}
	if len(rs[0].Keys) != 0 {
		t.Fatalf("pipelined set evicted %v", rs[0].Keys)
	}
	if !rs[1].Dirty[0] || rs[1].Dirty[1] {
		t.Fatalf("pipelined dirty = %v", rs[1].Dirty)
	}
	if !sameU64(rs[2].Keys, []uint64{200, 201}) {
		t.Fatalf("pipelined flush = %v", rs[2].Keys)
	}
}

// TestJSONErrors checks the error envelope and codes.
func TestJSONErrors(t *testing.T) {
	_, hs, _ := testServer(t)
	for _, tc := range []struct {
		path, body string
		wantStatus int
		wantCode   string
	}{
		{"/v1/set", "{not json", http.StatusBadRequest, dbiproto.CodeBadRequest},
		{"/v1/nope", "{}", http.StatusNotFound, dbiproto.CodeBadRequest},
		{"/v2/set", "{}", http.StatusNotFound, dbiproto.CodeBadVersion},
	} {
		resp, err := http.Post(hs.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.wantStatus)
		}
		var e dbiproto.ErrorResponse
		if err := jsonDecode(resp, &e); err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if e.Error.Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q", tc.path, e.Error.Code, tc.wantCode)
		}
	}
	// GET on a POST endpoint.
	resp, err := http.Get(hs.URL + "/v1/set")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /v1/set: status %d", resp.StatusCode)
	}
}

// TestJSONRefusesTrailingData checks that a body holding more than
// its one JSON value is refused whole: 400 bad_request, and the
// tracker's dirty keys are unchanged. A trailing newline, as curl
// sends, is accepted.
func TestJSONRefusesTrailingData(t *testing.T) {
	srv, hs, _ := testServer(t)
	for _, body := range []string{
		`{"keys":[7]}{"keys":[9]}`,
		`{"keys":[5]} trailing garbage`,
		`{"keys":[5]}}`,
		`{"keys":[5]} 1`,
	} {
		before := srv.tr.Stats().DirtyKeys
		resp, err := http.Post(hs.URL+"/v1/set", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e dbiproto.ErrorResponse
		if err := jsonDecode(resp, &e); err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Error.Code != dbiproto.CodeBadRequest {
			t.Errorf("%q: status %d code %q, want 400 %s", body, resp.StatusCode, e.Error.Code, dbiproto.CodeBadRequest)
		}
		if after := srv.tr.Stats().DirtyKeys; after != before {
			t.Errorf("%q: refused body moved dirty keys %d -> %d", body, before, after)
		}
	}
	resp, err := http.Post(hs.URL+"/v1/set", "application/json", strings.NewReader("{\"keys\":[5]}\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || srv.tr.Stats().DirtyKeys != 1 {
		t.Fatalf("newline-terminated body: status %d, %d dirty keys; want 200 and 1",
			resp.StatusCode, srv.tr.Stats().DirtyKeys)
	}
}

// TestBinaryBadVersion checks a wrong version byte gets bad_version
// and the connection survives.
func TestBinaryBadVersion(t *testing.T) {
	_, _, baddr := testServer(t)
	conn, err := net.Dial("tcp", baddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	wire := dbiproto.AppendFrame(nil, dbiproto.Frame{Version: 9, Op: dbiproto.OpPing, Seq: 42})
	// Follow with a valid ping to prove the stream stayed usable.
	wire = dbiproto.AppendFrame(wire, dbiproto.Frame{Version: 1, Op: dbiproto.OpPing, Seq: 43})
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	f, buf, err := dbiproto.ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Seq != 42 {
		t.Fatalf("first response seq %d", f.Seq)
	}
	if _, err := dbiproto.DecodeStatus(f.Payload); err == nil {
		t.Fatal("version 9 accepted")
	} else if se, ok := err.(*dbiproto.StatusError); !ok || se.Code != dbiproto.CodeBadVersion {
		t.Fatalf("error %v, want bad_version", err)
	}
	f, _, err = dbiproto.ReadFrame(conn, buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Seq != 43 || f.Op != dbiproto.OpPing|dbiproto.RespBit {
		t.Fatalf("second response %+v", f)
	}
	if _, err := dbiproto.DecodeStatus(f.Payload); err != nil {
		t.Fatalf("valid ping after bad version: %v", err)
	}
}

// TestDifferentialJSONvsBinary drives two identically-configured
// servers with the same randomized operation stream, one over each
// protocol, and requires identical answers throughout — the
// acceptance criterion that the two protocols are one API.
func TestDifferentialJSONvsBinary(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("differential seed %d", seed)
	rng := rand.New(rand.NewSource(seed))

	_, hs, _ := testServer(t, dbi.WithRows(512), dbi.WithAssociativity(8))
	_, _, baddr := testServer(t, dbi.WithRows(512), dbi.WithAssociativity(8))
	ctx := ctxT(t)
	jc := dbiclient.NewJSON(hs.URL)
	bc, err := dbiclient.Dial(ctx, baddr)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()

	for i := 0; i < 400; i++ {
		n := 1 + rng.Intn(32)
		keys := make([]uint64, n)
		for j := range keys {
			keys[j] = uint64(rng.Intn(1 << 16))
		}
		switch rng.Intn(4) {
		case 0:
			a, err1 := jc.SetDirty(ctx, keys)
			b, err2 := bc.SetDirty(ctx, keys)
			if err1 != nil || err2 != nil {
				t.Fatalf("op %d set: %v / %v", i, err1, err2)
			}
			if !sameU64(a, b) {
				t.Fatalf("op %d: set evictions diverge: json=%v binary=%v", i, a, b)
			}
		case 1:
			a, err1 := jc.IsDirty(ctx, keys)
			b, err2 := bc.IsDirty(ctx, keys)
			if err1 != nil || err2 != nil {
				t.Fatalf("op %d dirty: %v / %v", i, err1, err2)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("op %d: IsDirty[%d] diverges for key %d", i, j, keys[j])
				}
			}
		case 2:
			a, err1 := jc.Region(ctx, keys[:1])
			b, err2 := bc.Region(ctx, keys[:1])
			if err1 != nil || err2 != nil {
				t.Fatalf("op %d region: %v / %v", i, err1, err2)
			}
			if !sameU64(a, b) {
				t.Fatalf("op %d: region diverges: json=%v binary=%v", i, a, b)
			}
		case 3:
			a, err1 := jc.FlushRows(ctx, keys[:1])
			b, err2 := bc.FlushRows(ctx, keys[:1])
			if err1 != nil || err2 != nil {
				t.Fatalf("op %d flush: %v / %v", i, err1, err2)
			}
			if !sameU64(a, b) {
				t.Fatalf("op %d: flush diverges: json=%v binary=%v", i, a, b)
			}
		}
	}
	a, err1 := jc.Stats(ctx)
	b, err2 := bc.Stats(ctx)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if a.DirtyKeys != b.DirtyKeys || a.Writes != b.Writes || a.Evictions != b.Evictions ||
		a.Flushes != b.Flushes || a.FlushedKeys != b.FlushedKeys {
		t.Fatalf("final stats diverge:\njson   %+v\nbinary %+v", a, b)
	}
}

// TestRowBatchBoundedByAnswer: each key of a set, region or flush can
// answer with a whole row, so a request whose answer could exceed
// MaxBatch keys is refused with too_large before anything is applied,
// over both protocols; at the bound the whole answer arrives. Every
// key of the tracker's first rows is set first, so each key of a set
// in a new row evicts a dirty row.
func TestRowBatchBoundedByAnswer(t *testing.T) {
	const rows, rowSize = 1 << 12, 64 // testServer's tracker
	srv, hs, baddr := testServer(t)
	tr := srv.tr
	fill := make([]dbi.Key, rows*rowSize)
	for i := range fill {
		fill[i] = dbi.Key(i)
	}
	tr.SetDirtyBatch(fill, nil)
	ctx := ctxT(t)
	bc, err := dbiclient.Dial(ctx, baddr)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	jc := dbiclient.NewJSON(hs.URL)

	// rowHeads returns the first key of n rows starting at row first.
	rowHeads := func(first, n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64((first + i) * rowSize)
		}
		return keys
	}
	fresh, held := rowHeads(rows, rows), rowHeads(0, rows)
	limit := dbiproto.MaxBatch / rowSize
	before := tr.Stats().DirtyKeys
	for _, tc := range []struct {
		name string
		call func([]uint64) ([]uint64, error)
		keys []uint64
	}{
		{"binary set", func(k []uint64) ([]uint64, error) { return bc.SetDirty(ctx, k) }, fresh},
		{"binary set", func(k []uint64) ([]uint64, error) { return bc.SetDirty(ctx, k) }, fresh[:limit+1]},
		{"binary region", func(k []uint64) ([]uint64, error) { return bc.Region(ctx, k) }, held},
		{"binary flush", func(k []uint64) ([]uint64, error) { return bc.FlushRows(ctx, k) }, held},
		{"json set", func(k []uint64) ([]uint64, error) { return jc.SetDirty(ctx, k) }, fresh},
		{"json region", func(k []uint64) ([]uint64, error) { return jc.Region(ctx, k) }, held},
		{"json flush", func(k []uint64) ([]uint64, error) { return jc.FlushRows(ctx, k) }, held},
	} {
		got, err := tc.call(tc.keys)
		var se *dbiproto.StatusError
		if !errors.As(err, &se) || se.Code != dbiproto.CodeTooLarge {
			t.Fatalf("%s of %d keys: %d keys, err %v; want %s", tc.name, len(tc.keys), len(got), err, dbiproto.CodeTooLarge)
		}
		if after := tr.Stats().DirtyKeys; after != before {
			t.Fatalf("%s of %d keys refused but applied: dirty keys %d -> %d", tc.name, len(tc.keys), before, after)
		}
	}
	if _, err := bc.IsDirty(ctx, fresh); err != nil {
		t.Fatalf("IsDirty of %d keys: %v", rows, err)
	}

	ev, err := bc.SetDirty(ctx, fresh[:limit])
	if err != nil {
		t.Fatalf("set of %d keys: %v", limit, err)
	}
	if lost := before + limit - tr.Stats().DirtyKeys; len(ev) != lost {
		t.Fatalf("set of %d keys answered %d evicted keys; the tracker dropped %d", limit, len(ev), lost)
	}
}

// TestOpsplane checks /metrics renders the serve counters and
// /healthz answers.
func TestOpsPlane(t *testing.T) {
	_, hs, _ := testServer(t)
	cl := dbiclient.NewJSON(hs.URL)
	if _, err := cl.SetDirty(ctxT(t), []uint64{1}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	for _, want := range []string{
		"dbi_serve_json_requests_total 1",
		"dbi_serve_set_keys_total 1",
		"dbi_serve_dirty_keys 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, resp); got != "ok\n" {
		t.Errorf("/healthz = %q", got)
	}
}

func sameU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]uint64(nil), a...)
	bs := append([]uint64(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
