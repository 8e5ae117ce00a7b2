package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rapidmrc"
	"rapidmrc/internal/approx"
	"rapidmrc/internal/core"
	"rapidmrc/internal/sample"
	"rapidmrc/internal/service"
)

const (
	// batchLines is the feed batch a profiler posts: 4096 log entries.
	batchLines = 4096
	// pollEvery is how many batches pass between live-curve polls.
	pollEvery = 4
	// sampledRate is the SHARDS rate of the sampled tenants.
	sampledRate = 0.1
	// mrcdKinds tenants make one cycle: the probe mix in order, modes
	// alternating exact and sampled. Odd, so the period median falls
	// inside one kind's distribution.
	mrcdKinds = 9
	// daemonStarts is how many times set-up execs mrcd; all but the last
	// are drained and stopped again.
	daemonStarts = 21
)

// tenantInput is one tenant's probing period: pre-encoded feed bodies
// and the curve and tier its wait=1 read must return.
type tenantInput struct {
	app     string
	sampled bool
	bodies  [][]byte
	want    []float64
	tier    string
	kept    float64 // sampled tenants: kept / fed references
}

// mrcdMixed drives a real mrcd child over one keep-alive connection in
// a closed loop: each period registers a tenant, feeds a 160k-entry
// period in JSON batches with a live-curve poll after every fourth,
// reads the final curve with wait=1, and deletes the tenant.
type mrcdMixed struct {
	bin    string
	inputs []tenantInput
	d      *daemon
	hc     *http.Client
	svc    *service.Service // the traced in-process pass

	setupMs, periodMs, serveMs samples
	attempted, refused         int
	warmingPolls, periods      int
	next                       int // tenant id counter

	// Read just before the daemon is stopped.
	peakRSS, cpuNsPerRef, poolHitRatio, drainMs float64
	refsFed                                     int

	// Traced in-process pass: Go allocations and counters.
	mem                                                              memAcc
	inprocPeriods, approxServed, simServed, escalations, inprocSheds int
}

func (m *mrcdMixed) setup(seed int64) error {
	for i, app := range probeApps {
		sys, err := rapidmrc.NewSystem(app, rapidmrc.WithSeed(seed*1000+700+int64(i)))
		if err != nil {
			return err
		}
		sys.Run(warmupInstr)
		capt := sys.Capture()
		bodies, err := feedBodies(capt.Lines, capt.Instructions)
		if err != nil {
			return err
		}
		for _, sampled := range []bool{false, true} {
			in := tenantInput{app: app, sampled: sampled, bodies: bodies}
			if err := in.reference(capt.Lines, capt.Instructions); err != nil {
				return err
			}
			m.inputs = append(m.inputs, in)
		}
	}
	// inputs holds (app, exact), (app, sampled) pairs; the schedule
	// walks the apps in order with alternating modes.
	var sched []tenantInput
	for k := 0; k < mrcdKinds; k++ {
		sched = append(sched, m.inputs[2*(k%len(probeApps))+k%2])
	}
	m.inputs = sched
	m.svc = service.New(service.Config{})
	for i := 0; i < daemonStarts; i++ {
		d, el, err := startDaemon(m.bin)
		if err != nil {
			return err
		}
		m.setupMs.add(el)
		if i == daemonStarts-1 {
			m.d = d
			break
		}
		if _, err := d.stop(); err != nil {
			return err
		}
	}
	m.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	return nil
}

// feedBodies splits a period into FeedRequest bodies, prorating the
// instruction count so the batches sum to it exactly.
func feedBodies(lines []uint64, instr uint64) ([][]byte, error) {
	var out [][]byte
	n := uint64(len(lines))
	for lo := 0; lo < len(lines); lo += batchLines {
		hi := min(lo+batchLines, len(lines))
		b, err := json.Marshal(service.FeedRequest{Lines: lines[lo:hi],
			Instructions: instr*uint64(hi)/n - instr*uint64(lo)/n})
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// reference computes, in process and serially, what the tenant's wait=1
// read must serve: the analytical tier's decision on the whole period
// and, if it escalates, the exact (batch Mattson oracle) or sampled
// engine's curve.
func (in *tenantInput) reference(raw []uint64, instr uint64) error {
	cfg := core.DefaultConfig()
	lines := toLines(raw)
	core.CorrectPrefetchRepetitions(lines)
	prof, err := approx.ProfileTrace(lines, cfg)
	if err != nil {
		return err
	}
	var primary, secondary *approx.Estimate
	if e, err := (approx.CheFagin{}).Estimate(prof, instr); err == nil {
		primary = e
		if e2, err := (approx.FullyAssociative{}).Estimate(prof, instr); err == nil {
			secondary = e2
		}
	}
	d := approx.NewPolicy(approx.PolicyConfig{Threshold: approx.DefaultThreshold}).Decide(primary, secondary, false)
	in.tier = d.Tier.String()
	var res *core.Result
	if in.sampled {
		se, err := sample.NewEngine(cfg, sample.Config{Rate: sampledRate}, len(lines))
		if err != nil {
			return err
		}
		for _, l := range lines {
			se.Feed(l)
		}
		in.kept = float64(se.Sampled()) / float64(se.Consumed())
		if res, err = se.Snapshot(instr); err != nil {
			return err
		}
	} else if res, err = core.Compute(lines, instr, cfg); err != nil {
		return err
	}
	in.want = res.MRC.MPKI
	if d.Tier == approx.TierAnalytical {
		in.want = primary.MRC.MPKI
	}
	return nil
}

// registerRequest is the tenant's registration, without its ID.
func (in *tenantInput) registerRequest() service.RegisterRequest {
	req := service.RegisterRequest{Target: rapidmrc.TraceEntries, ApproxThreshold: approx.DefaultThreshold}
	if in.sampled {
		req.SamplingRate = sampledRate
	}
	return req
}

func (m *mrcdMixed) run(d time.Duration, tr *tracer) error {
	return runCycles(d, tr, nil, len(m.inputs), m.cycle)
}

func (m *mrcdMixed) cycle(tr *tracer) error {
	for i := range m.inputs {
		in := &m.inputs[i]
		m.next++
		id := "t" + strconv.Itoa(m.next)
		if err := m.httpPeriod(in, id, tr); err != nil {
			return err
		}
		if tr != nil {
			if err := m.inprocPeriod(in, id, tr); err != nil {
				return err
			}
		}
	}
	return nil
}

// do sends one request on the shared connection and reads the whole
// response.
func (m *mrcdMixed) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://"+m.d.addr+path, rd)
	if err != nil {
		return 0, nil, err
	}
	m.attempted++
	resp, err := m.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// warmingBody reports whether an error body says the engine has not
// recorded past warmup yet: a normal answer to an early poll.
func warmingBody(b []byte) bool {
	return bytes.Contains(b, []byte("warmup consumed")) || bytes.Contains(b, []byte("no references recorded"))
}

func unexpected(what string, status int, body []byte) error {
	return fmt.Errorf("mrcd %s: status %d: %s", what, status, bytes.TrimSpace(body))
}

// httpPeriod is one tenant's period over HTTP. The period runs from the
// register request to the wait=1 curve in hand.
func (m *mrcdMixed) httpPeriod(in *tenantInput, id string, tr *tracer) error {
	rr := in.registerRequest()
	rr.ID = id
	reg, err := json.Marshal(rr)
	if err != nil {
		return err
	}
	base := "/tenants/" + id
	root := tr.root("mrcd.period")
	start := time.Now()
	s := tr.begin("http.register", root)
	status, body, err := m.do("POST", "/tenants", reg)
	tr.end(s)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return unexpected("register", status, body)
	}
	for b, feed := range in.bodies {
		s = tr.begin("http.feed", root)
		for {
			status, body, err = m.do("POST", base+"/feed", feed)
			if err != nil {
				return err
			}
			if status == http.StatusAccepted {
				break
			}
			if status != http.StatusTooManyRequests {
				return unexpected("feed", status, body)
			}
			// Shed: the closed-loop client backs off and resends.
			m.refused++
			time.Sleep(time.Millisecond)
		}
		tr.end(s)
		if (b+1)%pollEvery != 0 {
			continue
		}
		s = tr.begin("http.poll", root)
		t0 := time.Now()
		status, body, err = m.do("GET", base+"/curve", nil)
		el := time.Since(t0)
		tr.end(s)
		switch {
		case err != nil:
			return err
		case status == http.StatusOK:
			if tr == nil {
				m.serveMs.add(el)
			}
		case status == http.StatusBadRequest && warmingBody(body):
			m.warmingPolls++
		default:
			return unexpected("poll", status, body)
		}
	}
	s = tr.begin("http.curve_wait", root)
	status, body, err = m.do("GET", base+"/curve?wait=1", nil)
	tr.end(s)
	el := time.Since(start)
	tr.end(root)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return unexpected("curve wait=1", status, body)
	}
	if tr == nil {
		m.periodMs.add(el)
	}
	m.periods++
	m.refsFed += rapidmrc.TraceEntries
	var cr service.CurveResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return err
	}
	if !sameBits(cr.MPKI, in.want) || cr.Tier != in.tier {
		return fmt.Errorf("mrcd %s tenant (%s, sampled=%v) served %s: %w", id, in.app, in.sampled, cr.Tier, errMismatch)
	}
	status, body, err = m.do("DELETE", base, nil)
	if err != nil {
		return err
	}
	if status != http.StatusNoContent {
		return unexpected("delete", status, body)
	}
	return nil
}

// inprocPeriod passes the same bodies through an in-process service, one
// span per layer call: JSON decode, Tenant.Feed (admission and copy),
// Tenant.Serve polls by tier, Tenant.Flush (queue drain) and the final
// Serve.
func (m *mrcdMixed) inprocPeriod(in *tenantInput, id string, tr *tracer) error {
	rr := in.registerRequest()
	m.mem.start()
	root := tr.root("inproc.period")
	t, err := m.svc.Register(id, service.TenantConfig{Target: rr.Target,
		Approx: approx.PolicyConfig{Threshold: rr.ApproxThreshold}, Sampling: sample.Config{Rate: rr.SamplingRate}})
	if err != nil {
		return err
	}
	for b, body := range in.bodies {
		s := tr.begin("service.decode", root)
		var req service.FeedRequest
		err := json.Unmarshal(body, &req)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("service.feed", root)
		for {
			err = t.Feed(req.Lines, req.Instructions)
			if !errors.Is(err, service.ErrOverloaded) {
				break
			}
			m.inprocSheds++
			t.Flush()
		}
		tr.end(s)
		if err != nil {
			return err
		}
		if (b+1)%pollEvery != 0 {
			continue
		}
		s = tr.begin("service.serve", root)
		ep, err := t.Serve(false)
		tr.end(s)
		switch {
		case err == nil:
			tr.rename(s, "service.serve."+ep.Tier.String())
		case warmingBody([]byte(err.Error())):
			tr.rename(s, "service.serve.warming")
		default:
			return err
		}
	}
	s := tr.begin("service.flush", root)
	t.Flush()
	tr.end(s)
	s = tr.begin("service.curve_wait", root)
	ep, err := t.Serve(true)
	tr.end(s)
	tr.end(root)
	m.mem.stop(1)
	if err != nil {
		return err
	}
	if !sameBits(ep.Result.MRC.MPKI, in.want) || ep.Tier.String() != in.tier {
		return fmt.Errorf("in-process tenant (%s, sampled=%v): %w", in.app, in.sampled, errMismatch)
	}
	st := t.Stats()
	m.approxServed += st.ApproxServed
	m.simServed += st.SimServed
	m.escalations += st.Escalations
	m.inprocPeriods++
	return m.svc.Evict(id)
}

// finish checks that no tenant is left, reads the daemon's peak RSS, CPU
// time and pool counters, and stops it: SIGTERM must drain cleanly.
func (m *mrcdMixed) finish() error {
	if m.svc != nil {
		m.svc.Drain()
	}
	if m.d == nil {
		return nil
	}
	d := m.d
	m.d = nil
	if m.hc != nil {
		defer m.hc.CloseIdleConnections()
	}
	var errs []error
	if metrics, err := scrape(d.addr); err != nil {
		errs = append(errs, err)
	} else {
		if metrics["rapidmrc_tenants"] != 0 {
			errs = append(errs, fmt.Errorf("mrcd: %v tenant(s) left after the run", metrics["rapidmrc_tenants"]))
		}
		hits, misses := metrics["rapidmrc_pool_hits"], metrics["rapidmrc_pool_misses"]
		m.poolHitRatio = hits / (hits + misses)
	}
	var err error
	if m.peakRSS, err = peakRSSMB(d.pid()); err != nil {
		errs = append(errs, err)
	}
	if cpu, err := cpuNanos(d.pid()); err != nil {
		errs = append(errs, err)
	} else if m.refsFed > 0 {
		m.cpuNsPerRef = cpu / float64(m.refsFed)
	}
	el, err := d.stop()
	m.drainMs = float64(el.Nanoseconds()) / 1e6
	return errors.Join(append(errs, err)...)
}

func (m *mrcdMixed) e2e() []metric {
	fmt.Printf("mrcd periods=%d requests=%d refused=%d warming_polls=%d shed_ratio=%.6f\n",
		m.periods, m.attempted, m.refused, m.warmingPolls, float64(m.refused)/float64(m.attempted))
	ms := []metric{{"setup_s", median(m.setupMs) / 1000, "s"}}
	ms = append(ms, timingMetrics("period_ms", m.periodMs)...)
	ms = append(ms, timingMetrics("serve_ms", m.serveMs)...)
	return append(ms, metric{"peak_rss_mb", m.peakRSS, "MB"})
}

func (m *mrcdMixed) layers(tr *tracer) []metric {
	var kept []float64
	for _, in := range m.inputs {
		if in.sampled {
			kept = append(kept, in.kept)
		}
	}
	fmt.Printf("mrcd periods=%d requests=%d refused=%d warming_polls=%d in_process_sheds=%d\n",
		m.periods, m.attempted, m.refused, m.warmingPolls, m.inprocSheds)
	decode := tr.perPeriod("inproc.period", "service.decode")
	for i := range decode {
		decode[i] *= 1e6 / rapidmrc.TraceEntries
	}
	ms := []metric{
		{"service.http_feed_ms", median(tr.perPeriod("mrcd.period", "http.feed")), "ms"},
		{"service.decode_ns_per_ref", median(decode), "ns/ref"},
		{"service.feed_us", 1000 * median(tr.perCall("service.feed")), "us"},
		{"service.flush_ms", median(tr.perPeriod("inproc.period", "service.flush")), "ms"},
		{"service.curve_wait_ms", median(tr.perPeriod("inproc.period", "service.curve_wait")), "ms"},
		{"service.serve_us.analytical", 1000 * median(tr.perCall("service.serve.analytical")), "us"},
		{"service.serve_us.simulated", 1000 * median(tr.perCall("service.serve.simulated")), "us"},
		{"approx.served_ratio", float64(m.approxServed) / float64(m.approxServed+m.simServed), "ratio"},
		{"approx.escalations", float64(m.escalations) / float64(m.inprocPeriods), "count"},
		{"sample.kept_ratio", mean(kept), "ratio"},
		{"service.pool_hit_ratio", m.poolHitRatio, "ratio"},
		{"mrcd.cpu_ns_per_ref", m.cpuNsPerRef, "ns/ref"},
		{"mrcd.drain_ms", m.drainMs, "ms"},
	}
	ms = append(ms, m.mem.metrics()...)
	return append(ms, overhead(tr, "mrcd.period", m.periodMs)...)
}

func (m *mrcdMixed) digest(h *digester) {
	for _, in := range m.inputs {
		h.str(in.app)
		h.str(in.tier)
		h.floats(in.want)
		h.floats([]float64{in.kept})
	}
}

func (m *mrcdMixed) counts() (int, int) { return m.attempted, m.refused }

// daemon is one mrcd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once stderr hits EOF
	logs []string      // stderr lines; read only after done
}

// startDaemon execs mrcd on an ephemeral loopback port and returns once
// /healthz answers; the duration is the daemon's set-up time.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	// The child must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.logs = append(d.logs, line)
			if _, a, ok := strings.Cut(line, "listening on "); ok && len(addrc) == 0 {
				addrc <- a
			}
		}
	}()
	select {
	case d.addr = <-addrc:
	case <-d.done:
		err := cmd.Wait()
		return nil, 0, fmt.Errorf("mrcd exited before listening: %v: %s", err, strings.Join(d.logs, "; "))
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, 0, errors.New("mrcd did not start listening within 30 s")
	}
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	resp, err := hc.Get("http://" + d.addr + "/healthz")
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	resp.Body.Close()
	el := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		d.kill()
		return nil, 0, fmt.Errorf("mrcd /healthz: status %d", resp.StatusCode)
	}
	return d, el, nil
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop sends SIGTERM and waits for the drain; a non-zero exit or a
// missing drain log line is an error. The duration is the drain time.
func (d *daemon) stop() (time.Duration, error) {
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, err
	}
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.kill()
		return 0, errors.New("mrcd did not exit within 60 s of SIGTERM")
	}
	err := d.cmd.Wait()
	el := time.Since(start)
	if err != nil {
		return el, fmt.Errorf("mrcd exit after SIGTERM: %v: %s", err, strings.Join(d.logs, "; "))
	}
	if len(d.logs) == 0 || !strings.HasSuffix(d.logs[len(d.logs)-1], "mrcd: drained") {
		return el, fmt.Errorf("mrcd did not log a clean drain: %s", strings.Join(d.logs, "; "))
	}
	return el, nil
}

// kill ends the child without a drain and reaps it.
func (d *daemon) kill() {
	if err := d.cmd.Process.Kill(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: kill mrcd:", err)
	}
	<-d.done
	if err := d.cmd.Wait(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: mrcd killed:", err)
	}
}

// scrape reads the daemon's unlabeled /metrics gauges.
func scrape(addr string) (map[string]float64, error) {
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	resp, err := hc.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.Contains(f[0], "{") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, sc.Err()
}

// cpuNanos is a process's user plus system CPU time from /proc, in ns
// (clock ticks are 1/100 s on Linux).
func cpuNanos(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) * 1e7, nil
}
