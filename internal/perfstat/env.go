package perfstat

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Env is the environment metadata stamped into every recording, so a
// diff can tell "the code got slower" apart from "the machine
// changed". Every field is best-effort: a missing git binary or a
// non-linux host leaves the corresponding fields empty rather than
// failing the recording.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
	Hostname   string `json:"hostname,omitempty"`
	GitSHA     string `json:"git_sha,omitempty"`
	GitDirty   bool   `json:"git_dirty,omitempty"`
}

// CaptureEnv snapshots the current environment.
func CaptureEnv() Env {
	e := Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
	e.Hostname, _ = os.Hostname()
	e.GitSHA, e.GitDirty = gitState()
	return e
}

// Comparable reports whether two environments are similar enough for
// wall-clock comparisons to mean anything, and if not, why. Metadata
// like hostname is allowed to differ; the compute substrate is not.
func (e Env) Comparable(o Env) (ok bool, reason string) {
	switch {
	case e.CPUModel != o.CPUModel:
		return false, "cpu model differs: " + orUnknown(e.CPUModel) + " vs " + orUnknown(o.CPUModel)
	case e.GOMAXPROCS != o.GOMAXPROCS:
		return false, "GOMAXPROCS differs"
	case e.GOARCH != o.GOARCH:
		return false, "GOARCH differs"
	default:
		return true, ""
	}
}

// DirtyTrees names which of two recordings, an old and a new one, were
// made from a tree with uncommitted changes: "old", "new", "old and
// new", or "" when both trees were clean. A dirty recording measured
// code that no commit holds.
func DirtyTrees(old, new Env) string {
	switch {
	case old.GitDirty && new.GitDirty:
		return "old and new"
	case old.GitDirty:
		return "old"
	case new.GitDirty:
		return "new"
	}
	return ""
}

func orUnknown(s string) string {
	if s == "" {
		return "(unknown)"
	}
	return s
}

// cpuModel reads the CPU model name from /proc/cpuinfo (linux); other
// platforms report empty.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}

// gitState returns the checked-out commit and whether the tree has
// uncommitted changes; both empty/false when git is unavailable.
func gitState() (sha string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "", false
	}
	sha = strings.TrimSpace(string(out))
	status, err := exec.Command("git", "status", "--porcelain").Output()
	if err != nil {
		return sha, false
	}
	return sha, len(strings.TrimSpace(string(status))) > 0
}
