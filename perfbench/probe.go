package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"rapidmrc"
	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
)

// The probe mix: five applications with different curve shapes and
// capture costs (knee, streaming, flat, small working set). An odd count
// of equally weighted apps keeps the period median inside one app's
// distribution instead of on the gap between two.
var probeApps = []string{"mcf", "art", "twolf", "gzip", "jbb"}

const (
	// warmupInstr is the run before the first probing period, as in
	// rapidmrc.Online.
	warmupInstr = 500_000
	// periodsPerBoot probing periods run on each booted system; then the
	// system is booted again, so the period schedule repeats and every
	// period has a set-up reference.
	periodsPerBoot = 2
	// measureInstr is System.Stream's miss-rate measurement for the
	// v-offset.
	measureInstr = 200_000
	// allColors is the reference partition size of an unpartitioned
	// system (the v-offset anchor) and the partitioner's color budget.
	allColors = 16
	// serveCalls is how many back-to-back ChoosePartitionN calls one
	// serve sample times. A single call takes a few microseconds, too
	// short for one clock reading to repeat across runs.
	serveCalls = 256
)

// probeRef is one period's expected output.
type probeRef struct {
	mpki           []float64
	dropped, stale int
	cycles         uint64
	converted      int
	recorded       int
}

type probeApp struct {
	name string
	seed int64
	sys  *rapidmrc.System
	refs []probeRef
}

// probe runs facade System.Stream periods round-robin over the mix. After
// each period the partitioner re-reads the mix's latest curves
// (ChoosePartitionN, the paper's online use of the curves): the per-call
// time of that read, over serveCalls calls, is the workload's serve_ms.
type probe struct {
	apps   []*probeApp
	latest []*rapidmrc.Curve
	// alloc[k][i] is the expected partition after period k of app i.
	alloc [][][]int
	eng   *core.StreamEngine

	setupMs, periodMs, serveMs samples
	appMs                      []samples // periodMs by app, a diagnostic
	periods                    int
	mem                        memAcc
	// simCounts holds, per traced period, the dropped and stale samples,
	// capture cycles, converted and recorded entries.
	simCounts [5][]float64
}

func (p *probe) setup(seed int64) error {
	for i, name := range probeApps {
		a := &probeApp{name: name, seed: seed*1000 + int64(i)}
		if _, err := p.boot(a); err != nil {
			return err
		}
		for k := 0; k < periodsPerBoot; k++ {
			ref, err := referencePeriod(a.sys)
			if err != nil {
				return err
			}
			a.refs = append(a.refs, ref)
		}
		p.apps = append(p.apps, a)
	}
	// Cycles repeat, so the curves in hand when a cycle starts are the
	// ones the previous cycle ended with.
	for _, a := range p.apps {
		p.latest = append(p.latest, &rapidmrc.Curve{MPKI: a.refs[periodsPerBoot-1].mpki})
	}
	cur := append([]*rapidmrc.Curve(nil), p.latest...)
	for k := 0; k < periodsPerBoot; k++ {
		var row [][]int
		for i, a := range p.apps {
			cur[i] = &rapidmrc.Curve{MPKI: a.refs[k].mpki}
			row = append(row, rapidmrc.ChoosePartitionN(cur, allColors))
		}
		p.alloc = append(p.alloc, row)
	}
	p.appMs = make([]samples, len(p.apps))
	var err error
	p.eng, err = core.NewStreamEngine(core.DefaultConfig(), rapidmrc.TraceEntries)
	return err
}

// boot starts the app's system and runs it to the first probing period:
// the program's set-up, timed.
func (p *probe) boot(a *probeApp) (time.Duration, error) {
	start := time.Now()
	sys, err := rapidmrc.NewSystem(a.name, rapidmrc.WithSeed(a.seed))
	if err != nil {
		return 0, err
	}
	sys.Run(warmupInstr)
	el := time.Since(start)
	a.sys = sys
	return el, nil
}

// referencePeriod is the serial reference: capture the period's trace,
// correct it and run the batch Mattson oracle, then anchor the curve at
// the measured miss rate, as System.Stream does.
func referencePeriod(sys *rapidmrc.System) (probeRef, error) {
	tr := sys.Capture()
	lines := toLines(tr.Lines)
	conv := core.CorrectPrefetchRepetitions(lines)
	res, err := core.Compute(lines, tr.Instructions, core.DefaultConfig())
	if err != nil {
		return probeRef{}, err
	}
	c := &rapidmrc.Curve{MPKI: res.MRC.MPKI}
	c.Transpose(allColors, sys.MeasureMPKI(measureInstr))
	return probeRef{mpki: c.MPKI, dropped: tr.Dropped, stale: tr.Stale, cycles: tr.Cycles,
		converted: conv, recorded: res.Recorded}, nil
}

func toLines(raw []uint64) []mem.Line {
	lines := make([]mem.Line, len(raw))
	for i, l := range raw {
		lines[i] = mem.Line(l)
	}
	return lines
}

func (p *probe) run(d time.Duration, tr *tracer) error {
	return runCycles(d, tr, &p.mem, len(p.apps)*periodsPerBoot, p.cycle)
}

// cycle boots every app, then runs periodsPerBoot rounds of one period
// per app. Traced cycles run the decomposed path with spans.
func (p *probe) cycle(tr *tracer) error {
	// Rebooting is how the benchmark repeats its inputs, not something
	// the online loop does: collect the old systems first, so their
	// garbage does not count towards peak_rss_mb or slow the boots.
	for _, a := range p.apps {
		a.sys = nil
	}
	runtime.GC()
	for _, a := range p.apps {
		el, err := p.boot(a)
		if err != nil {
			return err
		}
		if tr == nil {
			p.setupMs.add(el)
		}
	}
	for k := 0; k < periodsPerBoot; k++ {
		for i, a := range p.apps {
			ref := a.refs[k]
			var got probeRef
			var err error
			if tr == nil {
				start := time.Now()
				got, err = streamPeriod(a.sys)
				el := time.Since(start)
				p.periodMs.add(el)
				p.appMs[i].add(el)
			} else {
				got, err = p.tracedPeriod(a.sys, tr)
				for j, v := range []float64{float64(got.dropped), float64(got.stale),
					float64(got.cycles), float64(got.converted), float64(got.recorded)} {
					p.simCounts[j] = append(p.simCounts[j], v)
				}
			}
			if err != nil {
				return err
			}
			p.periods++
			// Stream does not report the recorded count; the traced
			// path does and is checked with it.
			if tr == nil {
				got.recorded = ref.recorded
			}
			if !sameBits(got.mpki, ref.mpki) || got.dropped != ref.dropped || got.stale != ref.stale ||
				got.cycles != ref.cycles || got.converted != ref.converted || got.recorded != ref.recorded {
				return fmt.Errorf("probe %s period %d: %w", a.name, k, errMismatch)
			}
			p.latest[i] = &rapidmrc.Curve{MPKI: got.mpki}
			var allocs [serveCalls][]int
			start := time.Now()
			for j := range allocs {
				allocs[j] = rapidmrc.ChoosePartitionN(p.latest, allColors)
			}
			if tr == nil {
				p.serveMs = append(p.serveMs, float64(time.Since(start).Nanoseconds())/1e6/serveCalls)
			}
			for _, alloc := range allocs {
				if !slices.Equal(alloc, p.alloc[k][i]) {
					return fmt.Errorf("probe partition after %s period %d: %w", a.name, k, errMismatch)
				}
			}
		}
	}
	return nil
}

// streamPeriod is the untraced period: one facade System.Stream call.
func streamPeriod(sys *rapidmrc.System) (probeRef, error) {
	c, st, err := sys.Stream(0, nil)
	if err != nil {
		return probeRef{}, err
	}
	return probeRef{mpki: c.MPKI, dropped: st.Dropped, stale: st.Stale, cycles: st.CaptureCycles,
		converted: st.Converted}, nil
}

// tracedPeriod is the same period decomposed into its layer calls:
// platform capture, the core pieces, and the miss-rate measurement.
func (p *probe) tracedPeriod(sys *rapidmrc.System, tr *tracer) (probeRef, error) {
	root := tr.root("probe.period")
	s := tr.begin("platform.capture", root)
	trace := sys.Capture()
	tr.end(s)
	conv, res, err := coreSpans(tr, root, p.eng, toLines(trace.Lines), trace.Instructions)
	if err != nil {
		return probeRef{}, err
	}
	s = tr.begin("platform.measure", root)
	measured := sys.MeasureMPKI(measureInstr)
	tr.end(s)
	c := &rapidmrc.Curve{MPKI: res.MRC.MPKI}
	c.Transpose(allColors, measured)
	tr.end(root)
	return probeRef{mpki: c.MPKI, dropped: trace.Dropped, stale: trace.Stale, cycles: trace.Cycles,
		converted: conv, recorded: res.Recorded}, nil
}

// coreSpans runs the exact engine's three steps on a raw trace, one span
// each: prefetch-repetition correction, the Mattson stack, and curve
// assembly from the histogram.
func coreSpans(tr *tracer, parent int, eng *core.StreamEngine, lines []mem.Line, instr uint64) (int, *core.Result, error) {
	s := tr.begin("core.correct", parent)
	conv := core.CorrectPrefetchRepetitions(lines)
	tr.end(s)
	s = tr.begin("core.stack", parent)
	if err := eng.Reset(len(lines)); err != nil {
		return 0, nil, err
	}
	for _, l := range lines {
		eng.Feed(l)
	}
	tr.end(s)
	s = tr.begin("core.curve", parent)
	res, err := eng.Snapshot(instr)
	tr.end(s)
	return conv, res, err
}

func (p *probe) finish() error { return nil }

func (p *probe) e2e() []metric {
	ms := []metric{{"setup_s", median(p.setupMs) / 1000, "s"}}
	for i, a := range p.apps {
		fmt.Printf("period_ms %s p50=%.3f\n", a.name, median(p.appMs[i]))
	}
	ms = append(ms, timingMetrics("period_ms", p.periodMs)...)
	ms = append(ms, timingMetrics("serve_ms", p.serveMs)...)
	rss, err := peakRSSMB("self")
	if err != nil {
		fmt.Println("peak_rss:", err)
	}
	return append(ms, metric{"peak_rss_mb", rss, "MB"})
}

func (p *probe) layers(tr *tracer) []metric {
	ms := []metric{
		{"platform.capture_ms", median(tr.perPeriod("probe.period", "platform.capture")), "ms"},
		{"platform.measure_ms", median(tr.perPeriod("probe.period", "platform.measure")), "ms"},
		{"pmu.dropped", mean(p.simCounts[0]), "count"},
		{"pmu.stale", mean(p.simCounts[1]), "count"},
		{"platform.capture_mcycles", mean(p.simCounts[2]) / 1e6, "Mcycles"},
	}
	ms = append(ms, coreLayers(tr, "probe.period", p.simCounts[3], p.simCounts[4])...)
	ms = append(ms, p.mem.metrics()...)
	return append(ms, overhead(tr, "probe.period", p.periodMs)...)
}

// coreLayers reports the core engine's steps under one kind of period.
func coreLayers(tr *tracer, root string, converted, recorded []float64) []metric {
	return []metric{
		{"core.correct_ms", median(tr.perPeriod(root, "core.correct")), "ms"},
		{"core.stack_ms", median(tr.perPeriod(root, "core.stack")), "ms"},
		{"core.curve_ms", median(tr.perPeriod(root, "core.curve")), "ms"},
		{"core.converted", mean(converted), "count"},
		{"core.recorded", mean(recorded), "count"},
	}
}

func (p *probe) digest(h *digester) {
	for _, a := range p.apps {
		h.str(a.name)
		for _, r := range a.refs {
			h.floats(r.mpki)
			h.ints(int64(r.dropped), int64(r.stale), int64(r.cycles), int64(r.converted), int64(r.recorded))
		}
	}
}

func (p *probe) counts() (int, int) { return p.periods, 0 }
