package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wflocks"
	"wflocks/internal/obs"
	"wflocks/internal/serve"
)

// serve-cache: an open loop of RESP requests, GET 80 / SET 20 over
// Zipf(0.9) keys, sent over the in-process loopback to a server with the
// cache backend and the change journal on. The keyspace is four times
// the cache's capacity, so misses and evictions happen. Every SET value
// encodes its key, so a GET must return nil or a value of that key.
const (
	serveRate       = 5000 // requests per second, over all connections
	serveEpisodeDur = 500 * time.Millisecond
	serveKeys       = 8192
	serveCapacity   = 2048
	serveZipf       = 0.9
	serveJournal    = 4096
	serveStreamOps  = 1 << 15
	serveTraceSpans = 1 << 16
	serveLadderStep = 500 * time.Millisecond
	serveP99Limit   = 25 * time.Millisecond
)

const (
	serveGet = iota
	serveSet
)

var serveCache = &workload{
	name:     "serve-cache",
	lane:     "conn",
	classes:  []string{"serve.get", "serve.set"},
	prepare:  prepareServe,
	overhead: openOverhead,
}

// openOverhead is the median latency an open loop loses to tracing.
func openOverhead(untraced, traced *phase) float64 {
	u, t := untraced.all().q(0.5), traced.all().q(0.5)
	if u == 0 {
		return 0
	}
	return t/u - 1
}

type serveOp struct {
	kind uint8
	key  string
	val  string // SET only: "<key>:<seq>"
}

type serveRun struct {
	in      *inputs
	keys    []string // hottest first, for the prefill
	streams [][]serveOp
	cursors []cursor
}

func prepareServe(in *inputs) factory {
	r := newRand(in.seed, 0)
	z := newZipf(r, serveKeys, serveZipf)
	run := &serveRun{in: in, cursors: make([]cursor, in.workers)}
	for _, k := range z.hottest(serveCapacity / 2) {
		run.keys = append(run.keys, "k"+strconv.FormatUint(k, 10))
	}
	for c := range in.workers {
		cr := newRand(in.seed, uint64(c)+1)
		ops := make([]serveOp, serveStreamOps)
		for i := range ops {
			key := "k" + strconv.FormatUint(z.draw(cr), 10)
			ops[i] = serveOp{kind: serveGet, key: key}
			if cr.IntN(10) < 2 {
				ops[i] = serveOp{kind: serveSet, key: key, val: key + ":" + strconv.Itoa(i)}
			}
		}
		run.streams = append(run.streams, ops)
	}
	return run
}

type serveEpisode struct {
	in       *serveRun
	srv      *serve.Server
	lb       *serve.Loopback
	served   chan error
	conns    []net.Conn
	rate     int
	traced   bool
	spans    []obs.Span // server spans of a traced episode
	statsErr error
	stats    map[string]float64
}

func (run *serveRun) setup(traced bool) (episode, error) { return run.build(traced, serveRate) }

func (run *serveRun) build(traced bool, rate int) (*serveEpisode, error) {
	cfg := serve.Config{
		Backend:     serve.BackendCache,
		Shards:      8,
		Capacity:    serveCapacity,
		MaxKeyBytes: 16,
		MaxValBytes: 32,
		JournalCap:  serveJournal,
		MaxConns:    run.in.workers + 2,
	}
	if traced {
		cfg.TraceSample = traceSample
		cfg.SpanRing = serveTraceSpans
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	e := &serveEpisode{in: run, srv: srv, lb: serve.NewLoopback(), served: make(chan error, 1), rate: rate, traced: traced}
	go func() { e.served <- srv.Serve(e.lb) }()
	for _, k := range run.keys {
		if err := srv.Backend().Set(k, k+":0", 0); err != nil {
			e.close()
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	for range run.in.workers {
		c, err := e.lb.Dial()
		if err != nil {
			e.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		e.conns = append(e.conns, c)
	}
	return e, nil
}

func (e *serveEpisode) run(stop *atomic.Bool) []*tally {
	return e.load(serveEpisodeDur, stop)
}

// load sends at e.rate for d, spread evenly over the connections, and
// times each request from when it was due.
func (e *serveEpisode) load(d time.Duration, stop *atomic.Bool) []*tally {
	start := time.Now().Add(time.Millisecond)
	ts := make([]*tally, len(e.conns))
	interval := time.Duration(float64(time.Second) * float64(len(e.conns)) / float64(e.rate))
	n := int(d / interval)
	var wg sync.WaitGroup
	for c, conn := range e.conns {
		ts[c] = newTally(2)
		wg.Add(1)
		go func(c int, conn net.Conn, t *tally) {
			defer wg.Done()
			first := start.Add(interval * time.Duration(c) / time.Duration(len(e.conns)))
			openLoop(conn, e.in.streams[c], &e.in.cursors[c], first, interval, n, e.traced, stop, t)
		}(c, conn, ts[c])
	}
	wg.Wait()
	if e.traced {
		e.stats, e.statsErr = fetchStats(e.conns[0])
		e.spans = serverSpans(e.srv.Spans())
	}
	return ts
}

// maxRate is the highest rate at which the server meets the p99 limit
// with every request answered and the generator on schedule: doubling
// from serveRate until a step fails, then bisecting three times between
// the last rate that passed and the first that failed. Each step runs
// on a fresh untraced server.
func (run *serveRun) maxRate(stop *atomic.Bool) (float64, error) {
	pass := func(rate int) (bool, error) {
		e, err := run.build(false, rate)
		if err != nil {
			return false, err
		}
		var p phase
		p.add(e.load(serveLadderStep, stop), serveLadderStep, 0, 0, "conn")
		if err := e.close(); err != nil {
			return false, err
		}
		debug.FreeOSMemory()
		limit := float64(serveP99Limit)
		return p.failed == 0 && p.all().q(0.99) <= limit && sorted(p.late).q(0.99) <= limit, nil
	}
	lo, hi := 0, 0
	for rate := serveRate; rate <= serveRate<<6 && !stop.Load(); rate *= 2 {
		ok, err := pass(rate)
		if err != nil {
			return 0, err
		}
		if !ok {
			hi = rate
			break
		}
		lo = rate
	}
	for i := 0; i < 3 && hi > 0 && !stop.Load(); i++ {
		mid := (lo + hi) / 2
		ok, err := pass(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return float64(lo), nil
}

// openLoop drives one connection: request j is due at first+j*interval
// and is sent then, whatever happened to earlier requests; a reader
// matches replies (which arrive in order) to requests and checks them.
func openLoop(conn net.Conn, ops []serveOp, cur *cursor, first time.Time, interval time.Duration,
	n int, traced bool, stop *atomic.Bool, t *tally) {
	sched := make([]serveOp, n)
	for j := range sched {
		sched[j] = ops[cur.next]
		cur.next = (cur.next + 1) % len(ops)
	}
	sentAt := make([]int64, n)
	sent := 0
	// A server that stops answering fails the episode instead of
	// hanging it.
	conn.SetDeadline(first.Add(interval*time.Duration(n) + 10*time.Second))
	done := make(chan struct{})
	go func() {
		defer close(done)
		br := bufio.NewReader(conn)
		for j := 0; ; j++ {
			rep, err := serve.ReadReply(br)
			now := time.Now()
			if err != nil {
				fmt.Fprintf(os.Stderr, "wfperf: serve-cache: reading reply %d: %v\n", j, err)
				return
			}
			if rep.Kind == serve.ReplySimple && rep.Str == "PONG" || j == n {
				return
			}
			op := sched[j]
			due := first.Add(interval * time.Duration(j))
			t.lat[op.kind].add(now.Sub(due))
			t.rtt.add(time.Duration(now.UnixNano() - sentAt[j]))
			t.ops++
			if !validReply(op, rep) {
				t.failed++
			}
			if traced {
				t.spans.add(span{Name: serveCache.classes[op.kind], Start: sentAt[j], End: now.UnixNano()})
			}
		}
	}()
	var buf []byte
	for sent < n && !stop.Load() {
		due := first.Add(interval * time.Duration(sent))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		// Send everything due by now in one write: a late generator
		// catches up in a burst rather than dropping the schedule.
		now := time.Now()
		buf = buf[:0]
		for ; sent < n && !first.Add(interval*time.Duration(sent)).After(now); sent++ {
			op := sched[sent]
			if op.kind == serveGet {
				buf = serve.AppendCommand(buf, "GET", op.key)
			} else {
				buf = serve.AppendCommand(buf, "SET", op.key, op.val)
			}
			sentAt[sent] = now.UnixNano()
			t.late.add(now.Sub(first.Add(interval * time.Duration(sent))))
		}
		if _, err := conn.Write(buf); err != nil {
			fmt.Fprintf(os.Stderr, "wfperf: serve-cache: sending: %v\n", err)
			break
		}
	}
	// The PING's reply marks the end of this episode's replies.
	if _, err := conn.Write(serve.AppendCommand(nil, "PING")); err != nil {
		fmt.Fprintf(os.Stderr, "wfperf: serve-cache: sending: %v\n", err)
	}
	<-done
	// Every scheduled request must have been answered.
	t.failed += uint64(n) - t.ops
	t.ops = uint64(n)
}

// validReply checks a reply against its request: a SET must be
// acknowledged, a GET must miss or return a value of its own key.
func validReply(op serveOp, rep serve.Reply) bool {
	if op.kind == serveSet {
		return rep.Kind == serve.ReplySimple && rep.Str == "OK"
	}
	switch rep.Kind {
	case serve.ReplyNull:
		return true
	case serve.ReplyBulk:
		k, _, ok := strings.Cut(rep.Str, ":")
		return ok && k == op.key
	}
	return false
}

// fetchStats sends STATS and parses its "name:value" lines.
func fetchStats(conn net.Conn) (map[string]float64, error) {
	if _, err := conn.Write(serve.AppendCommand(nil, "STATS")); err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	rep, err := serve.ReadReply(bufio.NewReader(conn))
	if err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	if rep.Kind != serve.ReplyBulk {
		return nil, fmt.Errorf("STATS: unexpected reply %q", rep.Str)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(rep.Str, "\n") {
		name, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, nil
}

// serverSpans keeps the spans that passed every pipeline stage.
func serverSpans(spans []obs.Span) []obs.Span {
	out := spans[:0]
	for _, s := range spans {
		if s.ReadNS != 0 && s.AdmitNS != 0 && s.EnqNS != 0 && s.DeqNS != 0 &&
			s.ExecNS != 0 && s.DoneNS != 0 && s.WriteNS != 0 {
			out = append(out, s)
		}
	}
	return out
}

// serveStages are the pipeline stages the ledger reports, each the
// interval between two of a span's stamps.
var serveStages = []struct {
	name       string
	start, end func(obs.Span) int64
}{
	{"admit", func(s obs.Span) int64 { return s.ReadNS }, func(s obs.Span) int64 { return s.AdmitNS }},
	{"queue_wait", func(s obs.Span) int64 { return s.EnqNS }, func(s obs.Span) int64 { return s.DeqNS }},
	{"execute", func(s obs.Span) int64 { return s.ExecNS }, func(s obs.Span) int64 { return s.DoneNS }},
	{"write", func(s obs.Span) int64 { return s.DoneNS }, func(s obs.Span) int64 { return s.WriteNS }},
}

// audit checks nothing beyond what the client checked on every reply;
// with fault set it stores a value of another key and reads it back,
// which the GET check must reject.
func (e *serveEpisode) audit(fault bool) uint64 {
	if !fault {
		return 0
	}
	op := serveOp{kind: serveGet, key: e.in.keys[0]}
	conn := e.conns[0]
	req := serve.AppendCommand(nil, "SET", op.key, e.in.keys[1]+":0")
	if _, err := conn.Write(serve.AppendCommand(req, "GET", op.key)); err != nil {
		return 1
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	if _, err := serve.ReadReply(br); err != nil {
		return 1
	}
	rep, err := serve.ReadReply(br)
	if err != nil || !validReply(op, rep) {
		fmt.Fprintf(os.Stderr, "wfperf: serve-cache audit: GET %s returned %q\n", op.key, rep.Str)
		return 1
	}
	return 0
}

func (e *serveEpisode) manager() *wflocks.Manager { return e.srv.Manager() }

func (e *serveEpisode) layers(l ledger, ts []*tally) []traceEvent {
	if tb, ok := e.srv.Backend().(interface{ TableShards() []serve.TableShardInfo }); ok {
		tableLayers(l, tb.TableShards())
	}
	if e.statsErr != nil {
		fmt.Fprintln(os.Stderr, "wfperf:", e.statsErr)
	} else if st := e.stats; st != nil {
		reqs := st["gets"] + st["sets"] + st["dels"]
		if st["gets"] > 0 {
			l["cache.hit_ratio"] = st["hits"] / st["gets"]
		}
		if reqs > 0 {
			l["workpool.steals_per_op"] = st["pool_steals"] / reqs
			l["log.appends_per_op"] = st["journal_appends"] / reqs
		}
		if n := st["journal_appends"] + st["journal_dropped"]; n > 0 {
			l["log.dropped_share"] = st["journal_dropped"] / n
		}
	}
	for _, st := range serveStages {
		var ls lats
		for _, s := range e.spans {
			ls.add(time.Duration(st.end(s) - st.start(s)))
		}
		ls = sorted(ls)
		l["serve."+st.name+"_ns_p50"], l["serve."+st.name+"_ns_p99"] = ls.q(0.5), ls.q(0.99)
	}
	// Wire time: what the client's round trip adds to the server's span.
	var server, rtt lats
	for _, s := range e.spans {
		server.add(time.Duration(s.WriteNS - s.ReadNS))
	}
	for _, t := range ts {
		rtt = append(rtt, t.rtt...)
	}
	l["serve.wire_ns_p50"] = sorted(rtt).q(0.5) - sorted(server).q(0.5)

	// The episode's last spans, one slice per stage.
	spans := e.spans
	if len(spans) > 1024 {
		spans = spans[len(spans)-1024:]
	}
	var evs []traceEvent
	for _, s := range spans {
		for _, st := range serveStages {
			evs = append(evs, traceEvent{Name: "serve." + st.name, Ph: "X", Pid: 2, Tid: "slot" + strconv.Itoa(s.Slot),
				Ts: float64(st.start(s)) / 1e3, Dur: float64(st.end(s)-st.start(s)) / 1e3,
				Args: map[string]any{"request": s.ID, "conn": s.Conn, "lock": s.LockID}})
		}
	}
	return evs
}

func (e *serveEpisode) close() error {
	for _, c := range e.conns {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	e.lb.Close()
	if serr := <-e.served; serr != nil && !errors.Is(serr, net.ErrClosed) {
		err = errors.Join(err, serr)
	}
	return err
}
