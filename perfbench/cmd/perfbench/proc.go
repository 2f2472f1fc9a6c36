package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"branchconf/perfbench/internal/bench"
)

// tierStats is one cache tier's row in paperrepro's -cache-stats-json
// output and its daemon's /v1/stats. Decoding ignores unknown fields, so
// a program that reports more still parses.
type tierStats struct {
	Name        string `json:"name"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	VerifyFails uint64 `json:"verify_fails"`
}

type serverStats struct {
	RequestsFailed   uint64 `json:"requests_failed"`
	ReportCacheHits  uint64 `json:"report_cache_hits"`
	RejectedFull     uint64 `json:"rejected_queue_full"`
	RejectedTimeout  uint64 `json:"rejected_queue_timeout"`
	RejectedDraining uint64 `json:"rejected_draining"`
}

type cacheStats struct {
	SessionPass tierStats    `json:"session_pass"`
	Tiers       []tierStats  `json:"tiers"`
	Server      *serverStats `json:"server"`
}

// all returns every tier, the session-pass tier first.
func (s *cacheStats) all() []tierStats { return append([]tierStats{s.SessionPass}, s.Tiers...) }

// builds returns each tier's misses: the exact count of artifacts built.
// Hits are not exact: at -parallel above 1 they include waits on another
// caller's in-flight build.
func (s *cacheStats) builds() map[string]uint64 {
	out := map[string]uint64{}
	for _, t := range s.all() {
		out[t.Name] = t.Misses
	}
	return out
}

// tier returns the named tier's row (zero if absent).
func (s *cacheStats) tier(name string) tierStats {
	for _, t := range s.all() {
		if t.Name == name {
			return t
		}
	}
	return tierStats{}
}

// verifyFails sums verify failures over every tier.
func (s *cacheStats) verifyFails() uint64 {
	var n uint64
	for _, t := range s.all() {
		n += t.VerifyFails
	}
	return n
}

// opResult is one finished one-shot op.
type opResult struct {
	wall   float64 // seconds, spawn to reap
	rssMB  float64 // peak resident set, from wait4's rusage
	cpu    float64 // user plus system seconds, from the same rusage
	report []byte  // standard output (the report) with its wall-time lines removed
	digest string  // SHA-256 of report
	stats  *cacheStats
}

// childEnv keeps the children's temporary files inside the checkout.
func (e *env) childEnv() []string {
	return append(os.Environ(), "TMPDIR="+e.work)
}

// command prepares a child that dies with the harness.
func (e *env) command(name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(e.ctx, name, args...)
	cmd.Env = e.childEnv()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// oneShot runs one paperrepro process with -cache-stats-json and returns
// its wall time, peak RSS, stripped report and counters.
func (e *env) oneShot(args ...string) (*opResult, error) {
	e.seq++
	outPath := filepath.Join(e.work, fmt.Sprintf("op%d.out", e.seq))
	errPath := filepath.Join(e.work, fmt.Sprintf("op%d.err", e.seq))
	defer os.Remove(outPath)
	defer os.Remove(errPath)
	res, err := e.spawn(e.bin, append(args, "-cache-stats-json"), outPath, errPath)
	if err != nil {
		return nil, err
	}
	stderr, err := os.ReadFile(errPath)
	if err != nil {
		return nil, err
	}
	res.stats, err = parseStats(stderr)
	if err != nil {
		return nil, fmt.Errorf("paperrepro %s: %w", strings.Join(args, " "), err)
	}
	return res, nil
}

// spawn runs a child to completion with stdout and stderr in files,
// timing it from start to reap.
func (e *env) spawn(bin string, args []string, outPath, errPath string) (*opResult, error) {
	out, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	defer out.Close()
	errf, err := os.Create(errPath)
	if err != nil {
		return nil, err
	}
	defer errf.Close()
	cmd := e.command(bin, args...)
	cmd.Stdout, cmd.Stderr = out, errf
	t0 := time.Now()
	runErr := cmd.Run()
	wall := time.Since(t0).Seconds()
	if runErr != nil {
		msg, _ := os.ReadFile(errPath)
		return nil, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), runErr, tail(msg))
	}
	report, err := os.ReadFile(outPath)
	if err != nil {
		return nil, err
	}
	stripped := bench.StripTimings(report)
	return &opResult{
		wall:   wall,
		rssMB:  maxRSSMB(cmd.ProcessState),
		cpu:    (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds(),
		report: stripped,
		digest: bench.Digest(stripped),
	}, nil
}

// maxRSSMB returns a reaped child's peak resident set in MiB.
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// parseStats decodes the -cache-stats-json object at the end of stderr.
func parseStats(stderr []byte) (*cacheStats, error) {
	i := bytes.LastIndex(stderr, []byte("\n{\n"))
	if i >= 0 {
		stderr = stderr[i+1:]
	} else if !bytes.HasPrefix(stderr, []byte("{")) {
		return nil, fmt.Errorf("no -cache-stats-json output on stderr: %s", tail(stderr))
	}
	var s cacheStats
	if err := json.Unmarshal(stderr, &s); err != nil {
		return nil, fmt.Errorf("decoding cache stats: %w", err)
	}
	return &s, nil
}

func tail(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 400 {
		s = "…" + s[len(s)-400:]
	}
	return s
}

// sourceDigest hashes the checkout's Go sources and module files (outside
// the benchmark and its build directory), naming the code under test when
// the checkout is not a git repository.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() && p != root && (name == ".bench_build" || name == ".git" || name == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
