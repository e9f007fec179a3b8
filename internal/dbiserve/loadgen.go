package dbiserve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dbisim/internal/addr"
	"dbisim/internal/stats"
	"dbisim/internal/trace"
	"dbisim/pkg/dbiclient"
)

// LoadConfig drives RunLoad: Clients independent connections replay
// an internal/trace profile against a dbiserved instance as open-loop
// traffic (Rate > 0 paces sends on a fixed schedule and charges queue
// wait to latency; Rate == 0 is closed-loop, each client sending as
// fast as the server answers).
type LoadConfig struct {
	Addr     string        // server address (binary TCP or HTTP host:port)
	Protocol string        // "binary" or "json"
	Clients  int           // concurrent connections
	Batch    int           // keys per request
	Duration time.Duration // measurement length
	Profile  string        // internal/trace profile name
	Seed     int64
	Rate     float64 // total target requests/sec across clients; 0 = closed loop
	Timeout  time.Duration
}

// LoadReport is what the driver measures. Latencies are microseconds
// per request (one batch round trip).
type LoadReport struct {
	Protocol  string  `json:"protocol"`
	Clients   int     `json:"clients"`
	Batch     int     `json:"batch"`
	Seconds   float64 `json:"seconds"`
	Requests  uint64  `json:"requests"`
	SetKeys   uint64  `json:"set_keys"` // SetDirty ops applied
	TotalKeys uint64  `json:"total_keys"`
	Evicted   uint64  `json:"evicted"`
	Flushed   uint64  `json:"flushed"`
	Errors    uint64  `json:"errors"`
	SetOpsSec float64 `json:"set_ops_per_sec"`
	ReqSec    float64 `json:"requests_per_sec"`
	P50us     int     `json:"p50_us"`
	P95us     int     `json:"p95_us"`
	P99us     int     `json:"p99_us"`
	MeanUs    float64 `json:"mean_us"`
}

// loadClient is the operation surface both protocol clients share.
type loadClient interface {
	SetDirty(ctx context.Context, keys []uint64) ([]uint64, error)
	IsDirty(ctx context.Context, keys []uint64) ([]bool, error)
	FlushRows(ctx context.Context, keys []uint64) ([]uint64, error)
}

// maxLatencyUs bounds the latency histogram: 1 second, far above any
// passing p99.
const maxLatencyUs = 1_000_000

// RunLoad replays cfg against a running server and reports.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	if cfg.Clients < 1 || cfg.Batch < 1 {
		return nil, fmt.Errorf("loadgen: need at least 1 client and 1-key batches")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.Protocol == "" {
		cfg.Protocol = "binary"
	}
	prof, err := trace.ByName(cfg.Profile)
	if err != nil {
		return nil, err
	}

	var (
		mu   sync.Mutex
		hist = stats.NewHistogram(maxLatencyUs)

		requests, setKeys, totalKeys atomic.Uint64
		evicted, flushed, errs       atomic.Uint64
	)
	observe := func(d time.Duration) {
		us := int(d.Microseconds())
		mu.Lock()
		hist.Observe(us)
		mu.Unlock()
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(float64(cfg.Clients) * float64(time.Second) / cfg.Rate)
	}

	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var cl loadClient
			switch cfg.Protocol {
			case "json":
				cl = dbiclient.NewJSON(cfg.Addr)
			default:
				bc, err := dbiclient.Dial(ctx, cfg.Addr)
				if err != nil {
					errCh <- err
					cancel()
					return
				}
				defer bc.Close()
				cl = bc
			}
			// Disjoint 1 GiB address footprints keep clients from
			// colliding on rows, as distinct cores would.
			gen := trace.New(prof, addr.Addr(uint64(id+1)<<30), cfg.Seed+int64(id))
			setBatch := make([]uint64, 0, cfg.Batch)
			loadBatch := make([]uint64, 0, cfg.Batch)
			recentRows := make([]uint64, 0, 8)
			// reqN counts requests for the open-loop schedule; turn
			// counts loop turns for the flush cadence. A turn sends one
			// to three requests, so a request-count cadence can skip
			// every multiple of 64 after the first flush.
			reqN, turn := 0, 0
			for runCtx.Err() == nil {
				turn++
				// Fill the set batch from the trace's stores; loads
				// accumulate into a dirty-query batch sent when full.
				setBatch = setBatch[:0]
				for len(setBatch) < cfg.Batch {
					rec := gen.Next()
					key := uint64(rec.Addr) >> 6
					if rec.Kind == trace.Store {
						setBatch = append(setBatch, key)
					} else if len(loadBatch) < cfg.Batch {
						loadBatch = append(loadBatch, key)
					}
				}
				if interval > 0 {
					next := start.Add(time.Duration(reqN) * interval)
					if d := time.Until(next); d > 0 {
						select {
						case <-runCtx.Done():
						case <-time.After(d):
						}
						if runCtx.Err() != nil {
							break
						}
					}
				}
				opCtx, opDone := context.WithTimeout(ctx, cfg.Timeout)
				t0 := time.Now()
				ev, err := cl.SetDirty(opCtx, setBatch)
				observe(time.Since(t0))
				opDone()
				reqN++
				if err != nil {
					if runCtx.Err() != nil {
						break
					}
					errs.Add(1)
					continue
				}
				requests.Add(1)
				setKeys.Add(uint64(len(setBatch)))
				totalKeys.Add(uint64(len(setBatch)))
				evicted.Add(uint64(len(ev)))
				if len(recentRows) < cap(recentRows) {
					recentRows = append(recentRows, setBatch[0])
				}

				if len(loadBatch) == cfg.Batch {
					opCtx, opDone := context.WithTimeout(ctx, cfg.Timeout)
					t0 := time.Now()
					_, err := cl.IsDirty(opCtx, loadBatch)
					observe(time.Since(t0))
					opDone()
					reqN++
					loadBatch = loadBatch[:0]
					if err == nil {
						requests.Add(1)
						totalKeys.Add(uint64(cfg.Batch))
					} else if runCtx.Err() == nil {
						errs.Add(1)
					}
				}
				// Periodic AWB harvest of recently written rows.
				if turn%64 == 0 && len(recentRows) > 0 {
					opCtx, opDone := context.WithTimeout(ctx, cfg.Timeout)
					t0 := time.Now()
					fl, err := cl.FlushRows(opCtx, recentRows)
					observe(time.Since(t0))
					opDone()
					reqN++
					recentRows = recentRows[:0]
					if err == nil {
						requests.Add(1)
						flushed.Add(uint64(len(fl)))
					} else if runCtx.Err() == nil {
						errs.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	elapsed := time.Since(start).Seconds()

	rep := &LoadReport{
		Protocol:  cfg.Protocol,
		Clients:   cfg.Clients,
		Batch:     cfg.Batch,
		Seconds:   elapsed,
		Requests:  requests.Load(),
		SetKeys:   setKeys.Load(),
		TotalKeys: totalKeys.Load(),
		Evicted:   evicted.Load(),
		Flushed:   flushed.Load(),
		Errors:    errs.Load(),
		P50us:     hist.Quantile(0.50),
		P95us:     hist.Quantile(0.95),
		P99us:     hist.Quantile(0.99),
		MeanUs:    hist.Mean(),
	}
	if elapsed > 0 {
		rep.SetOpsSec = float64(rep.SetKeys) / elapsed
		rep.ReqSec = float64(rep.Requests) / elapsed
	}
	return rep, nil
}
