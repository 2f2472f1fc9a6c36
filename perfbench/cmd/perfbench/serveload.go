package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"branchconf/perfbench/internal/bench"
)

// daemon is a running paperrepro serve child.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
}

// startDaemon boots paperrepro serve on a free loopback port and waits for
// its listening line.
func (e *env) startDaemon(extra ...string) (*daemon, error) {
	args := append([]string{"serve", "-listen", "127.0.0.1:0"}, extra...)
	cmd := e.command(e.bin, args...)
	cmd.Stdout = io.Discard
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok && !sent {
				addr <- strings.TrimSpace(a)
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	d := &daemon{cmd: cmd, client: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 64, DisableCompression: true},
	}}
	select {
	case a, ok := <-addr:
		if !ok {
			d.kill()
			return nil, fmt.Errorf("paperrepro serve exited before listening")
		}
		d.base = "http://" + a
		return d, nil
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("paperrepro serve did not report a listening address")
	}
}

// stop drains the daemon with SIGTERM, reaps it, and returns its peak RSS.
func (d *daemon) stop() (float64, error) {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return 0, fmt.Errorf("paperrepro serve: %v", err)
		}
		return maxRSSMB(d.cmd.ProcessState), nil
	case <-time.After(40 * time.Second):
		d.kill()
		return 0, fmt.Errorf("paperrepro serve did not drain within 40s")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// request asks for one figure with wall-time lines, which keeps it out of
// the daemon's rendered-report cache: it passes admission and the session
// pool and is answered from the warm in-memory tiers. It returns the
// stripped body and the latency.
func (d *daemon) request(id string) ([]byte, float64, error) {
	body, _ := json.Marshal(map[string]any{"branches": bench.ReportBranches, "only": []string{id}})
	t0 := time.Now()
	resp, err := d.client.Post(d.base+"/v1/report", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0).Seconds()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("%s: HTTP %d: %s", id, resp.StatusCode, tail(b))
	}
	if c := resp.Header.Get("X-Report-Cache"); c != "miss" {
		return nil, 0, errCacheHit{id: id, header: c}
	}
	return bench.StripTimings(b), lat, nil
}

// errCacheHit: a request with wall-time lines must never be answered from
// the rendered-report cache.
type errCacheHit struct{ id, header string }

func (e errCacheHit) Error() string {
	return fmt.Sprintf("%s: timing-bearing request answered with X-Report-Cache %q", e.id, e.header)
}

// stats fetches the daemon's /v1/stats snapshot.
func (d *daemon) stats() (*cacheStats, error) {
	resp, err := d.client.Get(d.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s cacheStats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, err
	}
	if s.Server == nil {
		return nil, fmt.Errorf("/v1/stats has no server section")
	}
	return &s, nil
}

// warm sends every figure once and returns each one's stripped body.
func (d *daemon) warm() (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, id := range bench.FigureIDs {
		b, _, err := d.request(id)
		if err != nil {
			return nil, err
		}
		out[id] = b
	}
	return out, nil
}

// runServeFigures: a warmed paperrepro serve child under a closed loop of
// nproc clients, each sending the figure requests in the seeded order and
// waiting for each reply before sending the next.
func runServeFigures(e *env) error {
	var d *daemon
	var ref map[string][]byte
	err := e.setup(func(rep int) error {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return err
			}
		}
		var err error
		if d, err = e.startDaemon(); err != nil {
			return err
		}
		bodies, err := d.warm()
		if err != nil {
			return err
		}
		if ref != nil {
			for id, b := range bodies {
				if !bytes.Equal(b, ref[id]) {
					e.problem("set-up %d: %s differs from the first daemon's", rep+1, id)
				}
			}
		}
		ref = bodies
		return nil
	})
	if err != nil {
		if d != nil {
			d.kill()
		}
		return err
	}
	before, err := d.stats()
	if err != nil {
		d.kill()
		return err
	}

	// A round is one client's nine requests, one per figure. The figures'
	// latencies differ by an order of magnitude, so the median request sits
	// between their modes and jumps; the median round does not. A round
	// with a failed, shed or wrong response has no round time: it is
	// dropped, and the drops are reported beside wall_s.
	order := bench.FigureOrder(e.seed)
	clients := e.nproc
	var (
		mu        sync.Mutex
		lats      []float64
		rounds    []float64
		dropped   int
		mismatch  = map[string]int{}
		errs      []string
		attempted int
		failed    int
	)
	t0 := time.Now()
	deadline := t0.Add(time.Duration(e.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			start := c * len(order) / clients
			round, whole := 0.0, true
			for i := start; e.ctx.Err() == nil && time.Now().Before(deadline); i++ {
				id := order[i%len(order)]
				b, lat, err := d.request(id)
				mu.Lock()
				attempted++
				switch {
				case err != nil:
					failed++
					whole = false
					if len(errs) < 5 {
						errs = append(errs, err.Error())
					}
					if _, hit := err.(errCacheHit); hit {
						e.problem("%v", err)
					}
				case !bytes.Equal(b, ref[id]):
					mismatch[id]++
					whole = false
				default:
					lats = append(lats, lat)
					round += lat
				}
				if (i-start+1)%len(order) == 0 {
					if whole {
						rounds = append(rounds, round)
					} else {
						dropped++
					}
					round, whole = 0, true
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	window := time.Since(t0).Seconds()
	e.attempted += attempted
	e.failed += failed
	for _, msg := range errs {
		e.flag("request failed: %s", msg)
	}
	for id, n := range mismatch {
		e.problem("%d %s responses differ from the warm-up response", n, id)
	}

	after, err := d.stats()
	if err != nil {
		d.kill()
		return err
	}
	rss, err := d.stop()
	if err != nil {
		return err
	}
	srv := after.Server
	if srv.ReportCacheHits != 0 {
		e.problem("daemon served %d timing-bearing requests from its report cache", srv.ReportCacheHits)
	}
	rejected := srv.RejectedFull + srv.RejectedTimeout + srv.RejectedDraining
	builds := map[string]uint64{}
	for name, n := range after.builds() {
		if delta := n - before.builds()[name]; delta != 0 {
			builds[name] = delta
		}
	}
	if len(builds) != 0 {
		e.flag("the warm daemon built artifacts during the measured window: %v", builds)
	}

	if len(rounds) == 0 {
		e.problem("no client completed a round without a failure: %d dropped", dropped)
	} else {
		e.metric("wall_s", bench.Median(rounds))
		e.detail["round_s"] = bench.Summarize(rounds, 90, 99)
		e.detail["latency_ms"] = bench.Summarize(scale(lats, 1000), 90, 99)
	}
	e.detail["rounds_dropped"] = dropped
	e.metric("peak_rss_mb", rss)
	e.detail["req_per_s"] = float64(len(lats)) / window
	e.detail["clients"] = clients
	e.detail["order"] = order
	e.detail["server"] = map[string]uint64{
		"requests_failed": srv.RequestsFailed, "rejected": rejected, "report_cache_hits": srv.ReportCacheHits,
	}
	e.detail["builds_in_window"] = builds
	e.detail["fail_frac"] = float64(failed) / float64(max(attempted, 1))

	return e.checkFiguresOneShot(ref)
}

// checkFiguresOneShot compares each figure the daemon served with the
// one-shot CLI's -no-timings bytes for that id: the report header followed
// by that id's section of one -only run over every figure.
func (e *env) checkFiguresOneShot(served map[string][]byte) error {
	r, err := e.oneShot(append(reportArgs, "-no-timings", "-only", strings.Join(bench.FigureIDs, ","))...)
	if err != nil {
		return fmt.Errorf("one-shot reference: %w", err)
	}
	header, sections := splitReport(r.report)
	digests := map[string]string{}
	for _, id := range bench.FigureIDs {
		want := append(append([]byte(nil), header...), sections[id]...)
		if sections[id] == nil || !bytes.Equal(served[id], want) {
			e.problem("%s: daemon bytes differ from the one-shot -no-timings bytes", id)
		}
		digests[id] = bench.Digest(want)
	}
	e.detail["digest"] = bench.Digest(r.report)
	e.detail["figure_digests"] = digests
	return nil
}

// splitReport splits a report into its header and its sections by
// experiment id.
func splitReport(report []byte) ([]byte, map[string][]byte) {
	// Splitting at "\n## " takes the newline that ends the header and every
	// section but the last; put it back.
	parts := bytes.Split(report, []byte("\n## "))
	header := append(bytes.Clone(parts[0]), '\n')
	sections := map[string][]byte{}
	for i, p := range parts[1:] {
		id, _, _ := bytes.Cut(p, []byte(" "))
		sec := append([]byte("## "), p...)
		if i < len(parts)-2 {
			sec = append(sec, '\n')
		}
		sections[string(id)] = sec
	}
	return header, sections
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
