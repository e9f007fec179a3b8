package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dbisim/internal/obs"
)

// dangling reports whether out leaves a transient line on the
// terminal: text after the last line erase that no newline ends.
func dangling(out string) bool {
	return out != "" && !strings.HasSuffix(out, "\n") && !strings.HasSuffix(out, "\r\x1b[2K")
}

// TestProgressThrottles verifies the 200ms render throttle: a flood of
// mid-sweep updates produces one line, but the final update always
// renders so 100% is never dropped.
func TestProgressThrottles(t *testing.T) {
	var buf bytes.Buffer
	p := newProgressPrinter(obs.NewTermLog(&buf))
	p.setLabel("fig6")
	for done := 1; done <= 9; done++ {
		p.update(done, 10)
	}
	out := buf.String()
	if got := strings.Count(out, "cells"); got != 1 {
		t.Fatalf("throttle let %d renders through, want 1:\n%q", got, out)
	}
	if !strings.Contains(out, "[fig6] 1/10 cells") {
		t.Fatalf("first update missing: %q", out)
	}

	// The 100%% line renders despite the throttle window and ends the
	// line so following output starts clean.
	p.update(10, 10)
	out = buf.String()
	if !strings.Contains(out, "[fig6] 10/10 cells\n") {
		t.Fatalf("final line missing or not newline-terminated: %q", out)
	}
	if dangling(buf.String()) {
		t.Fatal("printer still marked dirty after the final line")
	}
}

// TestProgressLabelSwitch verifies that setLabel starts a fresh sweep:
// the next update renders immediately under the new label and restarts
// the ETA clock.
func TestProgressLabelSwitch(t *testing.T) {
	var buf bytes.Buffer
	p := newProgressPrinter(obs.NewTermLog(&buf))
	p.setLabel("fig6")
	p.update(5, 10)
	p.setLabel("tab3")
	if p.active {
		t.Fatal("setLabel must deactivate the running sweep")
	}
	p.update(1, 4)
	out := buf.String()
	if !strings.Contains(out, "[tab3] 1/4 cells") {
		t.Fatalf("post-switch update missing new label: %q", out)
	}
	// The new sweep's clock restarted, so the sub-second-old sweep must
	// not extrapolate an ETA from the old sweep's start time.
	if strings.Contains(lastLine(out), "ETA") {
		t.Fatalf("fresh sweep printed an ETA: %q", out)
	}
}

// TestProgressETAGuard pins the startup-window guard: no ETA while the
// sweep is younger than etaWarmup or nothing finished, an ETA once both
// hold.
func TestProgressETAGuard(t *testing.T) {
	var buf bytes.Buffer
	p := newProgressPrinter(obs.NewTermLog(&buf))
	p.setLabel("fig7")

	p.update(1, 100) // brand-new sweep: elapsed ~0
	if out := buf.String(); strings.Contains(out, "ETA") {
		t.Fatalf("sub-second-old sweep printed an ETA: %q", out)
	}

	// Age the sweep past the warmup and reopen the throttle window.
	p.start = time.Now().Add(-4 * time.Second)
	p.lastOut = time.Time{}
	p.update(2, 100)
	if out := lastLine(buf.String()); !strings.Contains(out, "ETA") {
		t.Fatalf("aged sweep with progress printed no ETA: %q", out)
	}

	// A restarted count (new sweep, same label) resets the clock: with
	// done back at 0 and a fresh start there is again no ETA.
	buf.Reset()
	p.lastOut = time.Time{}
	p.update(0, 50)
	if out := buf.String(); strings.Contains(out, "ETA") {
		t.Fatalf("restarted sweep printed an ETA: %q", out)
	}
}

// TestProgressClear verifies clear erases a dangling line exactly once
// and that a nil printer is a no-op.
func TestProgressClear(t *testing.T) {
	var buf bytes.Buffer
	p := newProgressPrinter(obs.NewTermLog(&buf))
	p.setLabel("tab7")
	p.update(1, 10) // leaves a dangling line (no newline)
	if !dangling(buf.String()) {
		t.Fatal("mid-sweep update did not mark the line dangling")
	}
	before := buf.Len()
	p.clear()
	if !strings.HasSuffix(buf.String(), "\r\x1b[2K") {
		t.Fatalf("clear did not erase the line: %q", buf.String())
	}
	if dangling(buf.String()) {
		t.Fatal("clear left the printer marked dirty")
	}
	p.clear() // idempotent: nothing more to erase
	if buf.Len() != before+len("\r\x1b[2K") {
		t.Fatal("second clear wrote again")
	}

	var nilP *progressPrinter
	nilP.clear() // must not panic
}

func lastLine(s string) string {
	lines := strings.Split(s, "\r")
	return lines[len(lines)-1]
}
