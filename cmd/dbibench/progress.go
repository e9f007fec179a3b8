package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"dbisim/internal/obs"
)

// progressPrinter renders live sweep progress ("12/45 cells, ETA 30s")
// through a shared obs.TermLog, which serializes the transient line
// against every other stderr write so log lines never splice into it.
// Updates arrive concurrently from the worker pool; rendering is
// throttled so terminals are not flooded. A new sweep is detected when
// the total changes or the done count restarts.
type progressPrinter struct {
	mu      sync.Mutex
	term    *obs.TermLog
	label   string
	start   time.Time
	total   int
	lastN   int
	lastOut time.Time
	active  bool
}

func newProgressPrinter(term *obs.TermLog) *progressPrinter {
	return &progressPrinter{term: term}
}

// etaWarmup is how long a sweep must have been running before an ETA
// is trusted: extrapolating from the first cells of a sub-second-old
// sweep amplifies startup jitter into nonsense estimates.
const etaWarmup = time.Second

// setLabel names the sweeps that follow: the run's, then each
// experiment's id while it finishes (flushlat's finish runs a sweep).
func (p *progressPrinter) setLabel(l string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.label = l
	p.active = false
}

func (p *progressPrinter) update(done, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if !p.active || total != p.total || done < p.lastN {
		p.start, p.total, p.active = now, total, true
		// A fresh sweep renders immediately; throttling only applies
		// within a sweep.
		p.lastOut = time.Time{}
	}
	p.lastN = done
	if done < total && now.Sub(p.lastOut) < 200*time.Millisecond {
		return
	}
	p.lastOut = now
	line := fmt.Sprintf("[%s] %d/%d cells", p.label, done, total)
	if done < total {
		// ETA only once there is signal: at least one finished cell and
		// a sweep old enough that the extrapolation means something.
		if elapsed := now.Sub(p.start); done > 0 && elapsed >= etaWarmup {
			eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
			line += fmt.Sprintf(", ETA %s", eta.Round(time.Second))
		}
		p.term.SetProgress(line)
		return
	}
	p.term.EndProgress(line)
}

// clear erases a dangling progress line before normal output.
func (p *progressPrinter) clear() {
	if p == nil {
		return
	}
	p.term.ClearProgress()
}

// stderrIsTerminal reports whether stderr is attached to an
// interactive terminal. It gates the -progress default: CI logs and
// redirected runs should not collect ETA lines unless explicitly
// asked to (-progress=true still overrides).
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}
