package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"testing"

	"dbisim/internal/sweep"
	"dbisim/internal/system"
)

// TestFlightRecorderConcurrentDumps hammers WriteJSON from several
// goroutines while writers are actively recording on many lanes — the
// /debug/flightrecord-during-active-sweep shape, compressed. Run with
// -race (CI does): the assertions here are secondary to the detector.
func TestFlightRecorderConcurrentDumps(t *testing.T) {
	f := NewFlightRecorder(16)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f.CellStart(w, fmt.Sprintf("cell%d", i))
				f.PoolEvent(w, "rebuild", "")
				f.CellEnd(w, fmt.Sprintf("cell%d", i), 0, nil)
			}
		}()
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := f.WriteJSON(&buf); err != nil {
					t.Errorf("WriteJSON: %v", err)
					return
				}
				var doc struct {
					TraceEvents []json.RawMessage `json:"traceEvents"`
				}
				if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
					t.Errorf("dump %d is not valid JSON: %v", i, err)
					return
				}
			}
		}()
	}
	// Writers keep recording until every reader finished its dumps, so
	// the two sides genuinely overlap for the whole test.
	readers.Wait()
	close(stop)
	writers.Wait()
}

// TestFlightRecordEndpointDuringSweep exercises the real surface:
// concurrent GET /debug/flightrecord while a monitored sweep is
// actively running cells. Every response must be complete, valid
// Chrome-trace JSON.
func TestFlightRecordEndpointDuringSweep(t *testing.T) {
	srv, err := Start(Config{Addr: "127.0.0.1:0", FlightCap: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		sweep.Live.Disable()
		system.SetPoolEventHook(nil)
	}()
	url := "http://" + srv.Addr() + "/debug/flightrecord"

	started := make(chan struct{})
	var once sync.Once
	cells := make([]sweep.Cell[int], 64)
	for i := range cells {
		cells[i] = sweep.Cell[int]{
			Key: Key{Experiment: "flight-race", Param: strconv.Itoa(i)},
			Run: func() (int, error) {
				once.Do(func() { close(started) })
				system.PoolStat.Rebuilds.Add(1)
				return 1, nil
			},
		}
	}
	sweepDone := make(chan error, 1)
	go func() {
		_, err := sweep.RunWithProgress("flight-race", cells, 4, nil)
		sweepDone <- err
	}()
	<-started

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("GET: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("GET: status %d err %v", resp.StatusCode, err)
					return
				}
				var doc struct {
					TraceEvents []json.RawMessage `json:"traceEvents"`
				}
				if err := json.Unmarshal(body, &doc); err != nil {
					t.Errorf("mid-sweep dump is not valid JSON: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := <-sweepDone; err != nil {
		t.Fatal(err)
	}
}

// TestFlightRecorderWraparoundDump pins dump correctness after the
// ring wraps: only the newest perLane events survive, rendered
// oldest-first, and every pre-wrap event is gone.
func TestFlightRecorderWraparoundDump(t *testing.T) {
	const cap = 8
	f := NewFlightRecorder(cap)
	for i := 0; i < 20; i++ {
		f.record(0, 'i', fmt.Sprintf("e%02d", i), "")
	}
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range doc.TraceEvents {
		if len(e.Name) == 3 && e.Name[0] == 'e' {
			names = append(names, e.Name)
		}
	}
	if len(names) != cap {
		t.Fatalf("dump holds %d events %v, want the newest %d", len(names), names, cap)
	}
	for i, name := range names {
		if want := fmt.Sprintf("e%02d", 20-cap+i); name != want {
			t.Fatalf("position %d = %s, want %s (oldest-first, newest %d only): %v",
				i, name, want, cap, names)
		}
	}
}
