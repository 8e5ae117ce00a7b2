// Command perfbench is the repository benchmark. It runs one workload for
// a fixed wall-clock window and prints its end-to-end metrics, or, with
// -trace 1, a traced run that splits each workload's probing period into
// the repository's layers and prints per-layer metrics.
//
// Workloads (inputs are generated from -seed before any clock starts):
//
//	probe       System.Stream probing periods over a fixed app mix: the
//	            simulated platform capture plus the exact engine.
//	replay      pre-captured traces decoded from the tracefile format and
//	            fed through a facade stream: tracefile plus core.
//	mrcd_mixed  a real cmd/mrcd child fed over HTTP by one keep-alive
//	            client: JSON ingest, tenant queue, tiers, serving.
//
// Every curve is checked bit for bit against an in-process serial
// reference computed at set-up; the last line of standard output is a
// JSON object with the verdict and the metrics. Run it through run.sh,
// which builds this program and mrcd from the same checkout.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// workload is one benchmark workload. setup generates the inputs and the
// references and measures the program's own set-up; run measures whole
// cycles of probing periods until d has elapsed, recording spans into tr
// on alternate cycles when tr is not nil; finish stops what setup started.
type workload interface {
	setup(seed int64) error
	run(d time.Duration, tr *tracer) error
	finish() error
	// e2e returns the end-to-end metrics of the untraced periods.
	e2e() []metric
	// layers returns the per-layer metrics measured from the spans.
	layers(tr *tracer) []metric
	// digest feeds every reference curve and simulated count into h.
	digest(h *digester)
	// counts returns the operations attempted and refused.
	counts() (attempted, failed int)
}

// binaries are the repository programs the workloads exec.
type binaries struct{ mrcd, mrcgen string }

func newWorkload(name string, bins binaries) (workload, error) {
	switch name {
	case "probe":
		return &probe{}, nil
	case "replay":
		return &replay{mrcgen: bins.mrcgen}, nil
	case "mrcd_mixed":
		return &mrcdMixed{bin: bins.mrcd}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want probe, replay or mrcd_mixed)", name)
}

// workloadNames is the order traced runs visit the workloads in, after
// the named one.
var workloadNames = []string{"probe", "replay", "mrcd_mixed"}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// errMismatch marks a curve or count that differs from its reference.
var errMismatch = errors.New("output differs from the in-process reference")

func main() {
	name := flag.String("workload", "", "workload: probe, replay or mrcd_mixed")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 55, "measured wall-clock seconds")
	trace := flag.Int("trace", 0, "1 runs the traced, per-layer variant")
	var bins binaries
	flag.StringVar(&bins.mrcd, "mrcd", ".bench_build/mrcd", "mrcd binary to run as the daemon")
	flag.StringVar(&bins.mrcgen, "mrcgen", ".bench_build/mrcgen", "mrcgen binary whose start-up replay times")
	spans := flag.String("spans", ".bench_build/spans", "directory traced runs write their spans to")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if _, err := newWorkload(*name, bins); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, b := range []string{bins.mrcd, bins.mrcgen} {
		if _, err := os.Stat(b); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
	}
	fmt.Printf("env nproc=%d GOMAXPROCS=%d go=%s workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *name, *seed, *seconds, *trace)
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintln(os.Stderr, "perfbench: GOMAXPROCS exceeds nproc; the load generator must not oversubscribe")
		os.Exit(2)
	}
	kStart := hostKernel()
	var res result
	var err error
	d := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		res, err = untraced(*name, bins, *seed, d)
	} else {
		res, err = traced(*name, bins, *seed, d, *spans)
	}
	kEnd := hostKernel()
	fmt.Printf("host_kernel_ms start=%.2f end=%.2f (fixed pointer chase; ungated, tells a slow host from a regression)\n", kStart, kEnd)
	if err != nil && !errors.Is(err, errMismatch) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err != nil {
		fmt.Println("correctness:", err)
	}
	out, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// untraced runs one workload with tracing off and reports its
// end-to-end metrics.
func untraced(name string, bins binaries, seed int64, d time.Duration) (result, error) {
	w, _ := newWorkload(name, bins)
	if err := w.setup(seed); err != nil {
		return result{}, errors.Join(err, w.finish())
	}
	settle()
	runErr := w.run(d, nil)
	finErr := w.finish()
	if err := errors.Join(runErr, finErr); err != nil && !errors.Is(err, errMismatch) {
		return result{}, err
	}
	h := &digester{}
	w.digest(h)
	fmt.Printf("digest %s\n", h.sum())
	ms := w.e2e()
	printMetrics(ms)
	att, failed := w.counts()
	return newResult(runErr == nil && finErr == nil, att, failed, ms), errors.Join(runErr, finErr)
}

// traced runs the named workload and then the others, each for a third
// of d, with spans recorded on alternate cycles. Each per-layer metric is
// taken from the first of them that exercises the layer, so the named
// workload's own figures win where workloads share a layer.
func traced(name string, bins binaries, seed int64, d time.Duration, spanDir string) (result, error) {
	order := []string{name}
	for _, n := range workloadNames {
		if n != name {
			order = append(order, n)
		}
	}
	var all []metric
	seen := map[string]bool{}
	attempted, failed := 0, 0
	var mismatch error
	h := &digester{}
	for _, n := range order {
		w, _ := newWorkload(n, bins)
		tr := newTracer()
		fmt.Printf("== traced %s\n", n)
		if err := w.setup(seed); err != nil {
			return result{}, errors.Join(err, w.finish())
		}
		settle()
		runErr := w.run(d/time.Duration(len(order)), tr)
		finErr := w.finish()
		if err := errors.Join(runErr, finErr); err != nil {
			if !errors.Is(err, errMismatch) {
				return result{}, err
			}
			mismatch = errors.Join(mismatch, err)
		}
		w.digest(h)
		ms := w.layers(tr)
		tr.report(os.Stdout)
		for _, m := range ms {
			if !seen[m.name] {
				seen[m.name] = true
				all = append(all, m)
			}
		}
		a, f := w.counts()
		attempted += a
		failed += f
		if err := tr.write(spanDir, fmt.Sprintf("%s-seed%d.jsonl", n, seed)); err != nil {
			return result{}, err
		}
	}
	fmt.Printf("digest %s\n", h.sum())
	printMetrics(all)
	return newResult(mismatch == nil, attempted, failed, all), mismatch
}

// runCycles runs whole cycles until d has elapsed. With a tracer, cycles
// alternate untraced and traced (at least one of each), so the tracing
// overhead is measured over the same stretch of host time; the untraced
// cycles' Go allocations are then accounted in acc (when not nil).
func runCycles(d time.Duration, tr *tracer, acc *memAcc, perCycle int, cycle func(*tracer) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		var t *tracer
		if tr != nil && i%2 == 1 {
			t = tr
		}
		measure := tr != nil && t == nil && acc != nil
		if measure {
			acc.start()
		}
		if err := cycle(t); err != nil {
			return err
		}
		if measure {
			acc.stop(perCycle)
		}
		if time.Since(start) >= d && (tr == nil || i >= 1) {
			return nil
		}
	}
}

// memAcc accounts the Go heap allocations and collections of the
// program's periods in the benchmark process.
type memAcc struct {
	m0      runtime.MemStats
	alloc   uint64
	gcs     uint32
	periods int
}

func (a *memAcc) start() { runtime.ReadMemStats(&a.m0) }

func (a *memAcc) stop(periods int) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	a.alloc += m1.TotalAlloc - a.m0.TotalAlloc
	a.gcs += m1.NumGC - a.m0.NumGC
	a.periods += periods
}

func (a *memAcc) metrics() []metric {
	n := float64(a.periods)
	return []metric{
		{"go.alloc_mb_per_period", float64(a.alloc) / (1 << 20) / n, "MB"},
		{"go.gc_per_period", float64(a.gcs) / n, "count"},
	}
}

func newResult(correct bool, attempted, failed int, ms []metric) result {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) {
			// No samples, e.g. no poll was served analytically.
			fmt.Printf("metric %s had no samples; reported as 0\n", m.name)
			v = 0
		}
		r.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return r
}

func printMetrics(ms []metric) {
	for _, m := range ms {
		fmt.Printf("metric %-28s %14.6f %s\n", m.name, m.value, m.unit)
	}
}

// settle returns set-up garbage to the OS and restarts the process's
// peak-RSS counter, so peak_rss_mb covers the measured periods only.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS not reset, peak_rss_mb includes set-up:", err)
	}
}

// peakRSSMB reads VmHWM of a process ("self" or a pid) in MiB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// hostKernel times a fixed pointer chase through a 32 MiB single-cycle
// permutation (a full-period LCG, so hardware prefetchers cannot follow
// it). It does not touch the program under test: a change in it between
// runs is the host, not the code.
func hostKernel() float64 {
	const n = 1 << 23
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32((uint64(i)*6364136223846793005 + 1442695040888963407) & (n - 1))
	}
	start := time.Now()
	p := uint32(0)
	for i := 0; i < 1<<21; i++ {
		p = next[p]
	}
	el := time.Since(start)
	kernelSink = p
	return float64(el.Nanoseconds()) / 1e6
}

var kernelSink uint32

// digester hashes reference curves and simulated counts; two runs of one
// commit with one seed must print the same digest.
type digester struct{ b []byte }

func (h *digester) floats(v []float64) {
	for _, f := range v {
		h.b = binary.LittleEndian.AppendUint64(h.b, math.Float64bits(f))
	}
}

func (h *digester) ints(v ...int64) {
	for _, x := range v {
		h.b = binary.LittleEndian.AppendUint64(h.b, uint64(x))
	}
}

func (h *digester) str(s string) { h.b = append(append(h.b, s...), 0) }

func (h *digester) sum() string {
	s := sha256.Sum256(h.b)
	return fmt.Sprintf("%x", s[:8])
}

// sameBits reports whether two curves are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
