package dbiclient_test

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"dbisim/internal/dbiserve"
	"dbisim/internal/telemetry"
	"dbisim/pkg/dbi"
	"dbisim/pkg/dbiclient"
	"dbisim/pkg/dbiproto"
)

// dial boots an in-process dbiserved binary listener on loopback and
// returns a client connected to it.
func dial(t *testing.T) *dbiclient.Client {
	t.Helper()
	tr, err := dbi.NewSharded(4, dbi.WithRows(1<<12), dbi.WithRowSize(64))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go dbiserve.New(tr, telemetry.NewRegistry()).ServeBinary(ln)
	return dialAddr(t, ln.Addr().String())
}

func dialAddr(t *testing.T, addr string) *dbiclient.Client {
	t.Helper()
	cl, err := dbiclient.Dial(ctxT(t), addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestPipelineErrorKeepsClientInStep: an error answer in the middle of
// a pipeline must not leave the client behind the server. Do reads the
// answers after the failed one, returns the error and empties the
// queue, so the next calls get their own answers and a second Do sends
// nothing again.
func TestPipelineErrorKeepsClientInStep(t *testing.T) {
	cl := dial(t)
	ctx := ctxT(t)
	over := make([]uint64, dbiproto.MaxBatch+1)
	for i := range over {
		over[i] = uint64(i)
	}
	p := cl.Pipeline()
	p.SetDirty(over)
	p.IsDirty([]uint64{1})
	res, err := p.Do(ctx)
	var se *dbiproto.StatusError
	if !errors.As(err, &se) || se.Code != dbiproto.CodeTooLarge {
		t.Fatalf("Do = %v, %v; want a %s status error", res, err, dbiproto.CodeTooLarge)
	}
	if len(res) != 0 || p.Len() != 0 {
		t.Errorf("after the failed Do: %d answers returned, %d requests still queued; want 0 and 0", len(res), p.Len())
	}
	for i := 0; i < 2; i++ {
		if err := cl.Ping(ctx); err != nil {
			t.Fatalf("Ping %d after the failed pipeline: %v", i, err)
		}
	}
	if res, err := p.Do(ctx); err != nil || len(res) != 0 {
		t.Errorf("second Do = %v, %v; want nothing sent and no error", res, err)
	}
	if _, err := cl.SetDirty(ctx, []uint64{5}); err != nil {
		t.Fatal(err)
	}
	if got, err := cl.IsDirty(ctx, []uint64{5, 6}); err != nil || !reflect.DeepEqual(got, []bool{true, false}) {
		t.Errorf("IsDirty = %v, %v; want [true false]", got, err)
	}
}

// TestPipelineAnswersInQueueOrder: a pipeline's answers come back in
// queue order and equal what the same requests get one call at a time
// from an identical server.
func TestPipelineAnswersInQueueOrder(t *testing.T) {
	piped, single := dial(t), dial(t)
	ctx := ctxT(t)
	set := []uint64{1, 2, 65, 130, 131, 700}
	dirty := []uint64{1, 3, 65, 131}
	region := []uint64{0, 128}
	flush := []uint64{64, 129}

	p := piped.Pipeline()
	p.SetDirty(set)
	p.IsDirty(dirty)
	p.Region(region)
	p.FlushRows(flush)
	p.IsDirty(dirty)
	got, err := p.Do(ctx)
	if err != nil {
		t.Fatal(err)
	}

	var want []dbiclient.Result
	add := func(op byte, keys []uint64, bools []bool, err error) {
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, dbiclient.Result{Op: op, Keys: keys, Dirty: bools})
	}
	ev, err := single.SetDirty(ctx, set)
	add(dbiproto.OpSet, ev, nil, err)
	d1, err := single.IsDirty(ctx, dirty)
	add(dbiproto.OpIsDirty, nil, d1, err)
	rg, err := single.Region(ctx, region)
	add(dbiproto.OpRegion, rg, nil, err)
	fl, err := single.FlushRows(ctx, flush)
	add(dbiproto.OpFlush, fl, nil, err)
	d2, err := single.IsDirty(ctx, dirty)
	add(dbiproto.OpIsDirty, nil, d2, err)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("pipelined answers differ from single calls\n got: %+v\nwant: %+v", got, want)
	}
	if reflect.DeepEqual(d1, d2) {
		t.Errorf("IsDirty answered %v before and after the flush; the flush should clear some keys", d1)
	}
}

// TestExpiredDeadlineClosesConnection: a call whose deadline expires
// after its request was sent closes the connection, so the next call
// fails instead of reading the late answer. The server here answers
// only once the client has given up.
func TestExpiredDeadlineClosesConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	gaveUp, stop := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		f, _, err := dbiproto.ReadFrame(bufio.NewReader(conn), nil)
		if err != nil {
			return
		}
		select {
		case <-gaveUp:
		case <-stop:
			return
		}
		conn.Write(dbiproto.AppendFrame(nil, dbiproto.Frame{
			Version: dbiproto.Version, Op: f.Op | dbiproto.RespBit, Seq: f.Seq,
			Payload: []byte{dbiproto.StatusOK},
		}))
		io.Copy(io.Discard, conn) // until the client hangs up
	}()

	cl := dialAddr(t, ln.Addr().String())
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := cl.Ping(short); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Ping past its deadline = %v, want a deadline error", err)
	}
	close(gaveUp)
	if err := cl.Ping(ctxT(t)); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Ping after an expired exchange = %v, want the closed-connection error", err)
	}
}
