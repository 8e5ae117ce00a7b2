package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// samples collects timings in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle value (the mean of the two middle values for an
// even count); NaN when v is empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean averages v. Traced runs cover whole cycles and the counts are
// integers (summed exactly in float64), so the mean of a simulated count
// repeats exactly whatever the number of cycles.
func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// percentile returns the nearest-rank q-quantile of v and how many
// samples lie beyond it.
func percentile(v []float64, q float64) (val float64, beyond int) {
	if len(v) == 0 {
		return math.NaN(), 0
	}
	s := sorted(v)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], len(s) - 1 - i
}

// tailQ is the quantile every .tail metric reports. Every workload's
// run leaves at least ten samples beyond it (probe, the sparsest, runs
// ~370 periods in 55 s); higher quantiles read a handful of host hiccups
// and do not repeat across runs on a shared host.
const tailQ = 0.90

// timingMetrics reports the median of v as <name>.p50 and its tailQ
// quantile as <name>.tail, printing the sample counts, with a warning
// when a short run leaves fewer than ten samples beyond the tail.
func timingMetrics(name string, v []float64) []metric {
	tail, beyond := percentile(v, tailQ)
	warn := ""
	if beyond < 10 {
		warn = " (fewer than 10 beyond: run longer)"
	}
	fmt.Printf("%s n=%d tail=p%g with %d samples beyond%s\n", name, len(v), tailQ*100, beyond, warn)
	return []metric{{name + ".p50", median(v), "ms"}, {name + ".tail", tail, "ms"}}
}

// span is one traced layer call.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Period int    `json:"period"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// Spans of one probing period share a period id; a root span (parent -1)
// covers the whole period.
type tracer struct {
	t0     time.Time
	period int
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// root opens the span of a new probing period. Like begin, end and
// rename, it does nothing on a nil tracer, so one code path serves
// traced and untraced periods.
func (t *tracer) root(name string) int {
	if t == nil {
		return -1
	}
	t.period++
	return t.begin(name, -1)
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Period: t.period})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// rename names a span after its call returned, e.g. by the tier served.
func (t *tracer) rename(i int, name string) {
	if t != nil {
		t.spans[i].Name = name
	}
}

// index returns every span's self time in ns (its duration minus the
// part its children cover; children of one parent run one after another)
// and the index of its root span. Parents precede their children.
func (t *tracer) index() (self []int64, root []int) {
	self = make([]int64, len(t.spans))
	root = make([]int, len(t.spans))
	for i, s := range t.spans {
		d := s.End - s.Start
		self[i] += d
		root[i] = i
		if s.Parent >= 0 {
			self[s.Parent] -= d
			root[i] = root[s.Parent]
		}
	}
	return self, root
}

// perPeriod returns, for every period whose root span is named rootName,
// the summed self time in ms of its spans named name; name == rootName
// gives the root's own self time, the period's unattributed remainder.
func (t *tracer) perPeriod(rootName, name string) []float64 {
	self, root := t.index()
	var out []float64
	slot := map[int]int{}
	for i, s := range t.spans {
		r := root[i]
		if t.spans[r].Name != rootName {
			continue
		}
		if i == r {
			slot[r] = len(out)
			out = append(out, 0)
		}
		if s.Name == name {
			out[slot[r]] += float64(self[i]) / 1e6
		}
	}
	return out
}

// perCall returns the self time in ms of every span named name.
func (t *tracer) perCall(name string) []float64 {
	self, _ := t.index()
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(self[i])/1e6)
		}
	}
	return out
}

// durations returns the length in ms of every root span named rootName.
func (t *tracer) durations(rootName string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Parent == -1 && s.Name == rootName {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// report prints, per kind of root span, the median period, each layer's
// median per-period self time with its share of the period, and the
// unattributed remainder.
func (t *tracer) report(w io.Writer) {
	_, root := t.index()
	var roots []string
	names := map[string][]string{}
	for i, s := range t.spans {
		r := t.spans[root[i]].Name
		if _, ok := names[r]; !ok {
			roots = append(roots, r)
			names[r] = []string{}
		}
		if s.Parent >= 0 && !contains(names[r], s.Name) {
			names[r] = append(names[r], s.Name)
		}
	}
	for _, r := range roots {
		durs := t.durations(r)
		p50 := median(durs)
		fmt.Fprintf(w, "span %-28s periods=%d p50=%.3f ms\n", r, len(durs), p50)
		for _, n := range append(names[r], r) {
			m := median(t.perPeriod(r, n))
			label := n
			if n == r {
				label = "(unattributed)"
			}
			fmt.Fprintf(w, "span   %-26s self p50=%10.4f ms %6.1f%%\n", label, m, 100*m/p50)
		}
	}
}

func contains(v []string, s string) bool {
	for _, x := range v {
		if x == s {
			return true
		}
	}
	return false
}

// write dumps the spans as JSON lines into dir/file.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// overhead reports the traced periods' unattributed remainder and the
// tracing overhead: traced minus untraced period median, both from the
// same run's alternating cycles.
func overhead(tr *tracer, root string, untraced []float64) []metric {
	traced := median(tr.durations(root))
	fmt.Printf("trace %s traced p50=%.3f ms untraced p50=%.3f ms overhead=%.3f ms\n",
		root, traced, median(untraced), traced-median(untraced))
	return []metric{
		{"trace.unattributed_ms", median(tr.perPeriod(root, root)), "ms"},
		{"trace.overhead_ms", traced - median(untraced), "ms"},
	}
}
