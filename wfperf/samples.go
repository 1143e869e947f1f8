package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"time"
)

// lats holds latency samples in nanoseconds, saturating at ~4.3s. Every
// op of a run is kept, so quantiles are exact order statistics rather
// than histogram buckets.
type lats []uint32

func (l *lats) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	*l = append(*l, uint32(d))
}

// sorted returns a sorted copy of the union of ls.
func sorted(ls ...lats) lats {
	n := 0
	for _, l := range ls {
		n += len(l)
	}
	out := make(lats, 0, n)
	for _, l := range ls {
		out = append(out, l...)
	}
	slices.Sort(out)
	return out
}

// q is the nearest-rank q-quantile of a sorted sample set, 0 when empty.
func (l lats) q(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(l)))) - 1
	i = max(0, min(i, len(l)-1))
	return float64(l[i])
}

// median is the middle value of xs (mean of the two middle values for
// even counts), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// span is one of the benchmark's own spans: a timed call into a public
// function of the library (or one request's trip over the wire). Spans
// of one episode share the trace ID; Parent names the worker or
// connection lane that issued the call.
type span struct {
	Name   string
	Trace  int
	Parent string
	Start  int64 // UnixNano
	End    int64
}

// spanRing keeps the most recent spans of one worker; a traced run
// records a span around every call and writes out what the rings hold
// when it ends.
type spanRing struct {
	buf  []span
	next int
}

const spansPerWorker = 1024

func (r *spanRing) add(s span) {
	if r.buf == nil {
		r.buf = make([]span, 0, spansPerWorker)
	}
	if len(r.buf) < spansPerWorker {
		r.buf = append(r.buf, s)
		return
	}
	r.buf[r.next] = s
	r.next = (r.next + 1) % spansPerWorker
}

// traceEvent is one Chrome trace-event ("X" complete slice), the format
// Perfetto and chrome://tracing load.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  string         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes spans as a Chrome trace-event document: pid 1 holds
// the benchmark's own spans, pid 2 the serve stages joined from
// Server.Spans.
func writeTrace(path string, spans []span, server []traceEvent) error {
	evs := make([]traceEvent, 0, len(spans)+len(server))
	for _, s := range spans {
		evs = append(evs, traceEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Parent,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"trace": s.Trace},
		})
	}
	evs = append(evs, server...)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs}); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
