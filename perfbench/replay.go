package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"rapidmrc"
	"rapidmrc/internal/core"
	"rapidmrc/internal/tracefile"
)

const (
	// setupEntries is the length of the short trace set-up replays: long
	// enough to record past the static warm-up.
	setupEntries = 16384
	// setupExecs is how many times set-up execs the replay tool.
	setupExecs = 15
)

// replayTrace is one pre-captured probing period in tracefile format,
// with its reference curve.
type replayTrace struct {
	app       string
	buf       []byte
	mpki      []float64
	converted int
	recorded  int
}

// replay is the `mrcgen -stream -load` path in process: decode one
// pre-captured trace, feed it through a facade stream, snapshot, close.
// The snapshot is the workload's serve_ms; its set-up is the tool's own
// start-up. The platform and the service are bypassed.
type replay struct {
	mrcgen string // the replay tool's binary
	traces []replayTrace
	eng    *core.StreamEngine

	setupMs, periodMs, serveMs samples
	periods                    int
	mem                        memAcc
	simCounts                  [2][]float64 // converted, recorded per traced period
}

func (r *replay) setup(seed int64) error {
	for i, app := range probeApps {
		sys, err := rapidmrc.NewSystem(app, rapidmrc.WithSeed(seed*1000+500+int64(i)))
		if err != nil {
			return err
		}
		sys.Run(warmupInstr)
		capt := sys.Capture()
		t := &tracefile.Trace{Lines: toLines(capt.Lines), Instructions: capt.Instructions, Cycles: capt.Cycles}
		var buf bytes.Buffer
		if err := tracefile.Write(&buf, t); err != nil {
			return err
		}
		conv := core.CorrectPrefetchRepetitions(t.Lines)
		res, err := core.Compute(t.Lines, t.Instructions, core.DefaultConfig())
		if err != nil {
			return err
		}
		r.traces = append(r.traces, replayTrace{app: app, buf: buf.Bytes(), mpki: res.MRC.MPKI,
			converted: conv, recorded: res.Recorded})
	}
	var err error
	if r.eng, err = core.NewStreamEngine(core.DefaultConfig(), rapidmrc.TraceEntries); err != nil {
		return err
	}
	return r.measureSetup()
}

// measureSetup times the replay tool's start-up: exec `mrcgen -stream
// -load` on a short trace (the first setupEntries of the first one) until
// it exits with the curve printed. That covers process start, opening the
// trace, the first engine draw and a small first curve; every exec must
// succeed and print the same output.
func (r *replay) measureSetup() error {
	raw, err := tracefile.Read(bytes.NewReader(r.traces[0].buf))
	if err != nil {
		return err
	}
	short := &tracefile.Trace{Lines: raw.Lines[:setupEntries],
		Instructions: raw.Instructions * setupEntries / uint64(len(raw.Lines))}
	path := filepath.Join(filepath.Dir(r.mrcgen), fmt.Sprintf("replay-setup-%d.trace", os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	werr := tracefile.Write(f, short)
	if err := errors.Join(werr, f.Close()); err != nil {
		return err
	}
	var first []byte
	for i := 0; i < setupExecs; i++ {
		cmd := exec.Command(r.mrcgen, "-stream", "-load", path)
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		start := time.Now()
		out, err := cmd.Output()
		r.setupMs.add(time.Since(start))
		if err != nil {
			return fmt.Errorf("mrcgen -stream -load: %w", err)
		}
		if first == nil {
			first = out
		} else if !bytes.Equal(out, first) {
			return fmt.Errorf("mrcgen printed different curves for one trace: %w", errMismatch)
		}
	}
	return nil
}

func (r *replay) run(d time.Duration, tr *tracer) error {
	return runCycles(d, tr, &r.mem, len(r.traces), r.cycle)
}

// cycle replays every trace once.
func (r *replay) cycle(tr *tracer) error {
	eng := rapidmrc.NewEngine()
	for i := range r.traces {
		t := &r.traces[i]
		if tr != nil {
			if err := r.tracedPeriod(t, tr); err != nil {
				return err
			}
			r.periods++
			continue
		}
		start := time.Now()
		rd, err := tracefile.NewReader(bytes.NewReader(t.buf))
		if err != nil {
			return err
		}
		st, err := eng.NewStream(rd.Len())
		if err != nil {
			return err
		}
		for n := rd.Len(); n > 0; n-- {
			l, err := rd.Next()
			if err != nil {
				return err
			}
			if err := st.Feed(uint64(l)); err != nil {
				return err
			}
		}
		snap := time.Now()
		c, cs, err := st.Snapshot(rd.Instructions())
		r.serveMs.add(time.Since(snap))
		if err != nil {
			return err
		}
		if err := st.Close(); err != nil {
			return err
		}
		r.periodMs.add(time.Since(start))
		r.periods++
		if !sameBits(c.MPKI, t.mpki) || cs.Converted != t.converted {
			return fmt.Errorf("replay %s: %w", t.app, errMismatch)
		}
	}
	return nil
}

// tracedPeriod decodes the whole trace, then runs the core pieces.
func (r *replay) tracedPeriod(t *replayTrace, tr *tracer) error {
	root := tr.root("replay.period")
	s := tr.begin("tracefile.decode", root)
	dec, err := tracefile.Read(bytes.NewReader(t.buf))
	tr.end(s)
	if err != nil {
		return err
	}
	conv, res, err := coreSpans(tr, root, r.eng, dec.Lines, dec.Instructions)
	tr.end(root)
	if err != nil {
		return err
	}
	r.simCounts[0] = append(r.simCounts[0], float64(conv))
	r.simCounts[1] = append(r.simCounts[1], float64(res.Recorded))
	if !sameBits(res.MRC.MPKI, t.mpki) || conv != t.converted || res.Recorded != t.recorded {
		return fmt.Errorf("replay %s (traced): %w", t.app, errMismatch)
	}
	return nil
}

func (r *replay) finish() error { return nil }

func (r *replay) e2e() []metric {
	ms := []metric{{"setup_s", median(r.setupMs) / 1000, "s"}}
	ms = append(ms, timingMetrics("period_ms", r.periodMs)...)
	ms = append(ms, timingMetrics("serve_ms", r.serveMs)...)
	rss, err := peakRSSMB("self")
	if err != nil {
		fmt.Println("peak_rss:", err)
	}
	return append(ms, metric{"peak_rss_mb", rss, "MB"})
}

func (r *replay) layers(tr *tracer) []metric {
	ms := []metric{{"tracefile.decode_ms", median(tr.perPeriod("replay.period", "tracefile.decode")), "ms"}}
	ms = append(ms, coreLayers(tr, "replay.period", r.simCounts[0], r.simCounts[1])...)
	ms = append(ms, r.mem.metrics()...)
	return append(ms, overhead(tr, "replay.period", r.periodMs)...)
}

func (r *replay) digest(h *digester) {
	for _, t := range r.traces {
		h.str(t.app)
		h.floats(t.mpki)
		h.ints(int64(t.converted), int64(t.recorded))
	}
}

func (r *replay) counts() (int, int) { return r.periods, 0 }
