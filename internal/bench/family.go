package bench

import (
	"fmt"
	"sync"
	"time"

	"wflocks"
	"wflocks/internal/workload"
)

// Scenario-family skeleton. Every workload table — map, cache, txn,
// queue, log and service — is the same sweep: the stall regimes × the
// family's rows (its implementations under each delay variant and
// swept parameter). Every row is measured the same way: build the
// implementation around the row's own stall point and prefill it
// unarmed, Arm, snapshot the counters, run the timed goroutines,
// finish (audit, shut down), render. A family supplies only what
// differs: its constructors, op bodies, audit and columns.

// sweep is one scenario's table as its family declares it.
type sweep struct {
	title string
	// param heads the swept-parameter column ("shards", "L"); empty for
	// a table without one.
	param string
	// stalls adds the stall column and the holder-stall regime after
	// the raw one.
	stalls bool
	// rate heads the throughput column the skeleton renders from each
	// run's ops; empty when the family renders its own rate.
	rate string
	// cols heads the family's own columns, which follow the throughput.
	cols []string
	// obs appends obsHeader, rendered from each row's managers.
	obs   bool
	rows  []row
	notes []string
}

// row is one table row: its label cells and the constructor that
// builds and prefills the implementation around the row's stall point
// (nil in the raw regime).
type row struct {
	impl, param string
	build       func(sp *workload.StallPoint) (*run, error)
}

// run is one built implementation, prefilled and ready to time.
type run struct {
	// mgrs are the wait-free managers whose counters feed the success,
	// attempts and obs columns; none for a baseline.
	mgrs []*wflocks.Manager
	// workers goroutines each run work(w), timed together.
	workers int
	work    func(w int) error
	// ops is what the throughput column counts.
	ops int
	// finish, when set, runs after the timed run and reports its
	// failures: audits, shutdown.
	finish func() error
	// cols renders the family's columns from the post-run state.
	cols func(t *tally) []string
}

// tally is what the skeleton measured for one row: the managers'
// counters summed over the timed run.
type tally struct {
	ops   int  // the run's ops, as the throughput column counts them
	wf    bool // the row has managers; false for a baseline
	delta wflocks.StatsSnapshot
	obs   wflocks.ObsSnapshot // AttemptSteps/DelaySteps only
}

// success renders the run's per-attempt success rate; "-" for a
// baseline.
func (t *tally) success() string {
	if !t.wf {
		return "-"
	}
	return fmt.Sprintf("%.3f", t.delta.SuccessRate())
}

// attemptsPer renders the run's lock attempts per op over n ops; "-"
// for a baseline.
func (t *tally) attemptsPer(n int) string {
	if !t.wf || n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(t.delta.Attempts)/float64(n))
}

// obsHeader is the shared tail of every wait-free table's header: the
// helping-machinery columns, over the timed run.
var obsHeader = []string{"help/op", "fastpath", "delayshare"}

// obsCols renders obsHeader's columns: help and fast-path rates, and —
// when the managers record metrics — the delay share of attempt steps.
// Baseline rows are blank.
func (t *tally) obsCols() []string {
	if !t.wf {
		return []string{"-", "-", "-"}
	}
	share := "-"
	if t.obs.Enabled {
		share = fmt.Sprintf("%.3f", t.obs.DelayShare())
	}
	return []string{
		fmt.Sprintf("%.3f", t.delta.HelpRate()),
		fmt.Sprintf("%.3f", t.delta.FastPathRate()),
		share,
	}
}

// regime is one stall regime: its stall-column label and whether its
// rows stall.
type regime struct {
	label   string
	stalled bool
}

// regimes is every table's regime order: raw, then holder-stall.
var regimes = []regime{
	{label: "none"},
	{label: fmt.Sprintf("%v/%d", workload.StallDur, workload.StallPeriod), stalled: true},
}

// stallPoint returns a row's own stall point, so a regime's rows do
// not share a stall schedule; nil in the raw regime.
func (r regime) stallPoint() *workload.StallPoint {
	if !r.stalled {
		return nil
	}
	return workload.NewStallPoint(workload.StallPeriod, workload.StallDur)
}

// run measures every row in every regime of the table.
func (sw *sweep) run() (*Table, error) {
	t := &Table{Title: sw.title, Header: []string{"impl"}, Notes: sw.notes}
	if sw.param != "" {
		t.Header = append(t.Header, sw.param)
	}
	if sw.stalls {
		t.Header = append(t.Header, "stall")
	}
	if sw.rate != "" {
		t.Header = append(t.Header, sw.rate)
	}
	t.Header = append(t.Header, sw.cols...)
	if sw.obs {
		t.Header = append(t.Header, obsHeader...)
	}
	regs := regimes
	if !sw.stalls {
		regs = regimes[:1]
	}
	for _, reg := range regs {
		for _, r := range sw.rows {
			cells, err := sw.measure(r, reg)
			if err != nil {
				name := r.impl
				if r.param != "" {
					name += "/" + r.param
				}
				return nil, fmt.Errorf("%s (stall %s): %w", name, reg.label, err)
			}
			t.Rows = append(t.Rows, cells)
		}
	}
	return t, nil
}

// measure builds one row in one regime and times it: prefill (in
// build) → Arm → snapshot → timed run → finish → render.
func (sw *sweep) measure(r row, reg regime) ([]string, error) {
	sp := reg.stallPoint()
	x, err := r.build(sp)
	if err != nil {
		return nil, err
	}
	sp.Arm()
	base := make([]wflocks.StatsSnapshot, len(x.mgrs))
	obsBase := make([]wflocks.ObsSnapshot, len(x.mgrs))
	for i, m := range x.mgrs {
		base[i], obsBase[i] = m.Stats(), m.Observe()
	}
	elapsed, err := timed(x.workers, x.work)
	if x.finish != nil {
		if ferr := x.finish(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		return nil, err
	}
	t := &tally{ops: x.ops, wf: len(x.mgrs) > 0}
	for i, m := range x.mgrs {
		d := m.Stats().Sub(base[i])
		t.delta.Attempts += d.Attempts
		t.delta.Wins += d.Wins
		t.delta.Helps += d.Helps
		t.delta.FastPath += d.FastPath
		if od := m.Observe().Sub(obsBase[i]); od.Enabled {
			t.obs.Enabled = true
			t.obs.AttemptSteps += od.AttemptSteps
			t.obs.DelaySteps += od.DelaySteps
		}
	}
	cells := []string{r.impl}
	if sw.param != "" {
		cells = append(cells, r.param)
	}
	if sw.stalls {
		cells = append(cells, reg.label)
	}
	if sw.rate != "" {
		cells = append(cells, fmt.Sprintf("%.0f", float64(x.ops)/elapsed.Seconds()))
	}
	cells = append(cells, x.cols(t)...)
	if sw.obs {
		cells = append(cells, t.obsCols()...)
	}
	return cells, nil
}

// timed is the one timed worker loop: it runs work(0..n-1) on n
// goroutines and returns the wall time until the last returns, with
// the first error any of them reported.
func timed(n int, work func(w int) error) (time.Duration, error) {
	var wg sync.WaitGroup
	errs := make(chan error, n)
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := work(w); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	return elapsed, <-errs
}

// workerSeed is goroutine w's op-stream seed in the closed-loop tables.
func workerSeed(w int) uint64 { return uint64(w)*0x9e3779b97f4a7c15 + 1 }

// Scenario returns the runner of a registered workload scenario, or
// nil when no family registers the name. The runner's variants restrict
// the delay-variant sweep of the families that sweep it (map, cache,
// txn); queue, log and service run adaptive-only.
func Scenario(name string) func(Scale, []Variant) (*Table, error) {
	in := workload.Lookup(name)
	if in == nil {
		return nil
	}
	fam := families[in.Kind]
	if fam == nil {
		return nil
	}
	return func(s Scale, vs []Variant) (*Table, error) { return fam(name, s, vs) }
}

// families is the family table: registry kind → the family's sweep,
// bound to its typed scenario lookup.
var families = map[string]func(name string, s Scale, vs []Variant) (*Table, error){
	"map":     family(workload.LookupMapScenario, mapSweep),
	"cache":   family(workload.LookupCacheScenario, cacheSweep),
	"txn":     family(workload.LookupTxnScenario, txnSweep),
	"queue":   family(workload.LookupQueueScenario, queueSweep),
	"log":     family(workload.LookupLogScenario, logSweep),
	"service": family(workload.LookupServiceScenario, serviceSweep),
}

// scenario is what every family's typed scenario provides.
type scenario interface{ Validate() error }

// family binds a family's typed lookup to its sweep.
func family[S scenario](lookup func(string) S, plan func(S, Scale, []Variant) (*sweep, error)) func(string, Scale, []Variant) (*Table, error) {
	return func(name string, s Scale, vs []Variant) (*Table, error) {
		return runSweep(lookup(name), plan, s, vs)
	}
}

// runSweep validates sc, has its family plan the sweep, and runs it.
func runSweep[S scenario](sc S, plan func(S, Scale, []Variant) (*sweep, error), s Scale, vs []Variant) (*Table, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sw, err := plan(sc, s, vs)
	if err != nil {
		return nil, err
	}
	return sw.run()
}
