package main

import (
	"context"
	"net"
	"reflect"
	"testing"
	"time"

	"dbisim/internal/dbiserve"
	"dbisim/internal/telemetry"
	"dbisim/pkg/dbi"
	"dbisim/pkg/dbiclient"
)

// TestServeBothListeners runs serve on two loopback listeners, drives one
// JSON v1 set + dirty round trip and one binary Ping, then closes the
// binary listener and expects serve to stop the HTTP side and return.
func TestServeBothListeners(t *testing.T) {
	tr, err := dbi.NewSharded(4, dbi.WithRows(1<<12), dbi.WithRowSize(64))
	if err != nil {
		t.Fatal(err)
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hln.Close()
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serve(dbiserve.New(tr, telemetry.NewRegistry()), hln, bln) }()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	jc := dbiclient.NewJSON(hln.Addr().String())
	if _, err := jc.SetDirty(ctx, []uint64{1, 2, 3, 130}); err != nil {
		t.Fatalf("JSON set: %v", err)
	}
	dirty, err := jc.IsDirty(ctx, []uint64{2, 4})
	if err != nil {
		t.Fatalf("JSON dirty: %v", err)
	}
	if want := []bool{true, false}; !reflect.DeepEqual(dirty, want) {
		t.Fatalf("JSON dirty = %v, want %v", dirty, want)
	}

	cl, err := dbiclient.Dial(ctx, bln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(ctx); err != nil {
		t.Fatalf("binary ping: %v", err)
	}

	bln.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after its binary listener closed, want nil", err)
		}
	case <-ctx.Done():
		t.Fatal("serve did not return after its binary listener closed")
	}
	if _, err := jc.IsDirty(context.Background(), []uint64{2}); err == nil {
		t.Fatal("HTTP still answers after serve returned")
	}
}
