package dbiserve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"
)

func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunLoadSmoke drives a short closed-loop burst over each
// protocol and sanity-checks the report.
func TestRunLoadSmoke(t *testing.T) {
	_, hs, baddr := testServer(t)
	for _, tc := range []struct{ proto, addr string }{
		{"binary", baddr},
		{"json", hs.URL},
	} {
		rep, err := RunLoad(context.Background(), LoadConfig{
			Addr: tc.addr, Protocol: tc.proto, Clients: 4, Batch: 32,
			Duration: 300 * time.Millisecond, Profile: "stream", Seed: 7,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.proto, err)
		}
		if rep.Errors != 0 {
			t.Errorf("%s: %d errors", tc.proto, rep.Errors)
		}
		if rep.Requests == 0 || rep.SetKeys == 0 || rep.SetOpsSec <= 0 {
			t.Errorf("%s: empty report %+v", tc.proto, rep)
		}
		if rep.P99us < rep.P50us {
			t.Errorf("%s: p99 %d below p50 %d", tc.proto, rep.P99us, rep.P50us)
		}
	}
}

// TestRunLoadOpenLoop checks rate pacing holds request count near the
// schedule instead of running closed-loop flat out.
func TestRunLoadOpenLoop(t *testing.T) {
	_, _, baddr := testServer(t)
	rep, err := RunLoad(context.Background(), LoadConfig{
		Addr: baddr, Protocol: "binary", Clients: 2, Batch: 8,
		Duration: 500 * time.Millisecond, Profile: "stream", Seed: 7,
		Rate: 200, // 100 requests in the window
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pacing counts all request types; allow generous slop for CI.
	if rep.Requests < 50 || rep.Requests > 220 {
		t.Errorf("paced run sent %d requests, want ~100", rep.Requests)
	}
}

// TestRunLoadFlushesPeriodically checks that the periodic AWB harvest
// keeps firing: each client flushes a batch of up to 8 recently written
// rows every 64 loop turns, so a run of hundreds of turns per client
// flushes more rows than one batch per client. At 128-key batches, the
// loadtest's size, every stream turn sends a SetDirty and an IsDirty.
func TestRunLoadFlushesPeriodically(t *testing.T) {
	srv, _, baddr := testServer(t)
	const clients = 2
	rep, err := RunLoad(context.Background(), LoadConfig{
		Addr: baddr, Protocol: "binary", Clients: clients, Batch: 128,
		Duration: 500 * time.Millisecond, Profile: "stream", Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors", rep.Errors)
	}
	if got := srv.tr.Stats().Flushes; got <= 8*clients {
		t.Fatalf("%d row flushes in %d requests from %d clients, want more than %d",
			got, rep.Requests, clients, 8*clients)
	}
}
