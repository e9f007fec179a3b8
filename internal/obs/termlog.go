package obs

import (
	"fmt"
	"io"
	"sync"
)

// clearSeq erases the current terminal line: carriage return plus the
// ANSI erase-line sequence.
const clearSeq = "\r\x1b[2K"

// TermLog serializes a terminal's two output streams — transient
// progress lines (redrawn in place) and durable log lines — through one
// writer, so a dangling progress line is always erased before a log
// line lands and redrawn after it. Routing every stderr write through
// the TermLog is what keeps TTY clearing sequences from interleaving
// into other writers mid-line (the -progress vs -json corruption when
// both streams share a terminal).
//
// All methods are safe for concurrent use; the zero value is unusable,
// build one with NewTermLog.
type TermLog struct {
	mu       sync.Mutex
	w        io.Writer
	progress string // current transient line ("" when none)
	dirty    bool   // transient line currently displayed
}

// NewTermLog wraps w (normally os.Stderr).
func NewTermLog(w io.Writer) *TermLog { return &TermLog{w: w} }

// SetProgress draws (or redraws) the transient progress line.
func (t *TermLog) SetProgress(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.progress = line
	fmt.Fprintf(t.w, "%s%s", clearSeq, line)
	t.dirty = true
}

// EndProgress replaces the transient line with a final durable one —
// the sweep's "10/10 cells" — leaving the terminal clean for whatever
// follows.
func (t *TermLog) EndProgress(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.progress = ""
	fmt.Fprintf(t.w, "%s%s\n", clearSeq, line)
	t.dirty = false
}

// ClearProgress erases a dangling transient line, if any, and forgets
// it.
func (t *TermLog) ClearProgress() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.progress = ""
	if t.dirty {
		io.WriteString(t.w, clearSeq)
		t.dirty = false
	}
}

// Write emits a durable log payload: the transient line is erased
// first and redrawn after, so log lines never splice into a progress
// line (io.Writer, for fmt.Fprintf and log.SetOutput).
func (t *TermLog) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dirty {
		io.WriteString(t.w, clearSeq)
		t.dirty = false
	}
	n, err := t.w.Write(p)
	if err == nil && t.progress != "" {
		fmt.Fprintf(t.w, "%s%s", clearSeq, t.progress)
		t.dirty = true
	}
	return n, err
}
