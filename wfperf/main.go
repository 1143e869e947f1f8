// Command wfperf is the repository's benchmark: it runs one workload
// against the library's public API for a fixed time, audits the
// outputs, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer ledger) as one JSON line. Run it through run.sh, which
// builds it from source:
//
//	bash wfperf/run.sh --workload kv-mixed --seed 1 --seconds 10 --trace 0
//
// CONTRACT.md lists the workloads, the metrics and which layer metric
// should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"wflocks"
)

// workload is one traffic shape. Each episode runs on a freshly built
// system under test: the library's write paths retain memory for as
// long as the structure lives (see CONTRACT.md), so a run is a series of
// episodes of fixed size, each set up, measured, audited and dropped.
type workload struct {
	name    string
	lane    string   // what issues the load: "worker" or "conn"
	classes []string // op classes, named by the layer call they time
	// prepare generates the run's inputs from the seed, before any
	// clock starts.
	prepare func(in *inputs) factory
	// overhead compares a traced against an untraced sample set: the
	// tracing overhead as a share of the untraced figure.
	overhead func(untraced, traced *phase) float64
}

// factory sets up the episodes of a run from its generated inputs.
type factory interface {
	setup(traced bool) (episode, error)
}

// rateLadder is the factory of an open-loop workload that can search for
// the highest rate its system sustains.
type rateLadder interface {
	maxRate(stop *atomic.Bool) (float64, error)
}

// episode is one built system under test.
type episode interface {
	// run drives one episode's load, ending early if stop is set.
	run(stop *atomic.Bool) []*tally
	// audit checks the outputs and returns the number of misses; with
	// fault set it first corrupts one output through the public API.
	audit(fault bool) uint64
	// manager is the lock manager whose counters the ledger reads.
	manager() *wflocks.Manager
	// layers adds the episode's own per-layer figures (traced only) and
	// returns any trace events the system under test recorded itself.
	layers(l ledger, ts []*tally) []traceEvent
	close() error
}

// tally is what one worker or connection measured.
type tally struct {
	ops, failed uint64
	lat         []lats // per op class, timed end to end
	spans       spanRing
	// Open-loop only: how late the generator sent, and client RTTs
	// (send to reply) for the wire-time estimate.
	late, rtt lats
}

func newTally(classes int) *tally { return &tally{lat: make([]lats, classes)} }

// phase accumulates the recorded episodes of one mode (traced or
// untraced).
type phase struct {
	ops, failed uint64
	elapsed     time.Duration
	lat         []lats
	late        lats
	spans       []span
	// Per-episode figures. The end-to-end metrics are their medians over
	// the run's episodes, so a burst of load from outside the benchmark,
	// or a rare pause, moves one episode's figure and not the run's.
	rate, p50, p99, p999, rss []float64
}

func (p *phase) add(ts []*tally, elapsed time.Duration, rssMB float64, trace int, lanes string) {
	p.elapsed += elapsed
	var ep []lats
	ops := uint64(0)
	for _, t := range ts {
		ep = append(ep, t.lat...)
		ops += t.ops
	}
	all := sorted(ep...)
	p.rate = append(p.rate, float64(ops)/elapsed.Seconds())
	p.p50 = append(p.p50, all.q(0.50))
	p.p99 = append(p.p99, all.q(0.99))
	p.p999 = append(p.p999, all.q(0.999))
	p.rss = append(p.rss, rssMB)
	for i, t := range ts {
		p.ops += t.ops
		p.failed += t.failed
		if p.lat == nil {
			p.lat = make([]lats, len(t.lat))
		}
		for c := range t.lat {
			p.lat[c] = append(p.lat[c], t.lat[c]...)
		}
		p.late = append(p.late, t.late...)
		for _, s := range t.spans.buf {
			s.Trace, s.Parent = trace, fmt.Sprintf("%s%d", lanes, i)
			p.spans = append(p.spans, s)
		}
	}
}

func (p *phase) all() lats { return sorted(p.lat...) }

func (p *phase) opsPerSec() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.ops) / p.elapsed.Seconds()
}

// inputs are a run's settings; each workload generates its inputs from
// them.
type inputs struct {
	seed    uint64
	workers int
	fault   bool
}

var workloads = map[string]*workload{
	"kv-mixed":    kvMixed,
	"txn-stall":   txnStall,
	"serve-cache": serveCache,
}

// memGuardMB stops a run before the machine runs out of memory: the
// run is marked failed instead. It is a watchdog on resident memory,
// not debug.SetMemoryLimit, which would change the GC being measured.
const memGuardMB = 2048

func main() {
	name := flag.String("workload", "", "workload: kv-mixed, txn-stall or serve-cache")
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer ledger")
	out := flag.String("out", ".bench_build", "directory for the span trace of a traced run")
	fault := flag.Bool("fault", false, "corrupt one output before the audit (checks that audits fail the run)")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "wfperf: unknown workload %q (want kv-mixed, txn-stall or serve-cache)\n", *name)
		os.Exit(2)
	}
	in := &inputs{seed: *seed, workers: runtime.GOMAXPROCS(0), fault: *fault}
	res, err := measure(w, in, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfperf:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfperf:", err)
		os.Exit(1)
	}
	fmt.Printf("wfperf workload=%s seed=%d seconds=%g trace=%d workers=%d fail_ratio=%g p99_us=%g\n",
		w.name, *seed, *seconds, *trace, in.workers, float64(res.Failed)/float64(res.Attempted), res.p99us)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// p99us is printed for reading but is not a metric: on kv-mixed the
	// p99 sits at the edge of the slow tail, and between runs it moved
	// by more than any allowed bound.
	p99us float64
}

// measure runs one warm-up episode, then episodes until the measured
// time reaches total. A traced run alternates untraced and traced
// episodes, so the tracing overhead is measured on the same inputs.
func measure(w *workload, in *inputs, total time.Duration, traced bool, out string) (*result, error) {
	b := w.prepare(in)
	var stop atomic.Bool
	guard := startGuard(&stop)
	defer guard.stop()

	var untr, tr phase
	var attempted, failed uint64 // every episode's, the warm-up's too
	var setups []float64
	var ledgers []ledger
	var serverEvents []traceEvent
	runEpisode := func(n int, tracedEp, record bool) error {
		guard.resetPeak()
		t0 := time.Now()
		ep, err := b.setup(tracedEp)
		if err != nil {
			return fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		var base snapshot
		if tracedEp {
			base = takeSnapshot(ep.manager(), true)
		}
		start := time.Now()
		ts := ep.run(&stop)
		elapsed := time.Since(start)
		var end snapshot
		if tracedEp {
			end = takeSnapshot(ep.manager(), false)
		}
		failed += ep.audit(in.fault)
		for _, t := range ts {
			attempted += t.ops
			failed += t.failed
		}
		if record {
			p := &untr
			if tracedEp {
				p = &tr
			}
			p.add(ts, elapsed, guard.peakMB(), n, w.lane)
		}
		if tracedEp && record {
			l := ledger{}
			ops := uint64(0)
			for _, t := range ts {
				ops += t.ops
			}
			end.live = liveHeap()
			base.ledger(l, end, ops)
			serverEvents = append(serverEvents, ep.layers(l, ts)...)
			ledgers = append(ledgers, l)
		}
		if err := ep.close(); err != nil {
			return fmt.Errorf("%s close: %w", w.name, err)
		}
		// Return the episode's memory to the OS, so every episode starts
		// from the same resident set and the peak reflects one episode.
		debug.FreeOSMemory()
		return nil
	}

	if err := runEpisode(0, false, false); err != nil {
		return nil, err
	}
	for i := 1; !stop.Load() && (untr.elapsed+tr.elapsed < total || traced && tr.elapsed == 0); i++ {
		if err := runEpisode(i, traced && i%2 == 0, true); err != nil {
			return nil, err
		}
	}

	if guard.tripped.Load() {
		fmt.Fprintf(os.Stderr, "wfperf: memory guard: resident memory passed %d MB, run stopped\n", memGuardMB)
		failed++
	}
	res := &result{Correct: failed == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: map[string]metric{},
		p99us: median(untr.p99) / 1e3}
	if !traced {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["ops_per_s"] = metric{median(untr.rate), "1/s"}
		res.Metrics["p50_us"] = metric{median(untr.p50) / 1e3, "us"}
		res.Metrics["p999_us"] = metric{median(untr.p999) / 1e3, "us"}
		res.Metrics["peak_rss_mb"] = metric{median(untr.rss), "MB"}
		return res, nil
	}

	// Per-layer ledger: medians over traced episodes, plus what the
	// benchmark timed itself.
	for _, m := range layerMetrics {
		var xs []float64
		for _, l := range ledgers {
			if v, ok := l[m.name]; ok {
				xs = append(xs, v)
			}
		}
		res.Metrics[m.name] = metric{median(xs), m.unit}
	}
	for c, class := range w.classes {
		s := sorted(tr.lat[c])
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"p50", 0.50}, {"p99", 0.99}, {"p999", 0.999}} {
			name := class + "_ns_" + q.suffix
			if _, ok := res.Metrics[name]; ok {
				res.Metrics[name] = metric{s.q(q.q), "ns"}
			}
		}
	}
	if rl, ok := b.(rateLadder); ok {
		rate, err := rl.maxRate(&stop)
		if err != nil {
			return nil, fmt.Errorf("%s rate ladder: %w", w.name, err)
		}
		res.Metrics["client.max_rate_ops"] = metric{rate, "1/s"}
	}
	res.Metrics["trace.overhead_ratio"] = metric{w.overhead(&untr, &tr), "ratio"}
	if len(tr.late) > 0 {
		res.Metrics["client.lateness_us_p99"] = metric{sorted(tr.late).q(0.99) / 1e3, "us"}
		res.Metrics["client.sent"] = metric{float64(tr.ops), "count"}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, fmt.Errorf("trace directory: %w", err)
	}
	path := filepath.Join(out, fmt.Sprintf("wfperf-trace-%s-%d.json", w.name, in.seed))
	if err := writeTrace(path, tr.spans, serverEvents); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "wfperf: %d spans written to %s\n", len(tr.spans), path)
	return res, nil
}

// closedOverhead is the throughput a closed loop loses to tracing.
func closedOverhead(untraced, traced *phase) float64 {
	u, t := untraced.opsPerSec(), traced.opsPerSec()
	if t == 0 {
		return 0
	}
	return u/t - 1
}

// memGuard samples resident memory every few milliseconds: it sets
// stop when the process passes memGuardMB, and keeps the peak since the
// last resetPeak, so each episode's peak is measured on its own.
type memGuard struct {
	tripped atomic.Bool
	peakKB  atomic.Uint64
	done    chan struct{}
	exited  chan struct{}
}

func startGuard(stop *atomic.Bool) *memGuard {
	g := &memGuard{done: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(g.exited)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.done:
				return
			case <-tick.C:
				if g.sample() > memGuardMB<<10 {
					g.tripped.Store(true)
					stop.Store(true)
				}
			}
		}
	}()
	return g
}

// sample reads the resident set size in KiB and folds it into the peak.
func (g *memGuard) sample() uint64 {
	kb := rssKB()
	for {
		p := g.peakKB.Load()
		if kb <= p || g.peakKB.CompareAndSwap(p, kb) {
			return kb
		}
	}
}

func (g *memGuard) resetPeak() { g.peakKB.Store(0) }

// peakMB is the peak resident set size since resetPeak, in MiB.
func (g *memGuard) peakMB() float64 {
	g.sample()
	return float64(g.peakKB.Load()) / 1024
}

func (g *memGuard) stop() {
	close(g.done)
	<-g.exited
}

// rssKB is the current resident set size in KiB (0 where /proc is
// unavailable).
func rssKB() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, pages uint64
	if _, err := fmt.Sscan(string(b), &size, &pages); err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize()) >> 10
}
