package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
)

// traceEvery is the trace sampling period, "one update in 64" rounded to
// a prime so sampled updates fall on every position of a 4-, 16- or
// 64-update batch instead of always the same one.
const traceEvery = 61

// span is one traced interval. Spans of one update share id; every child
// names the update span as its parent.
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// The stamps of one sampled TCP update, all taken in benchmark-owned
// code. Consecutive stamps bound the child spans.
const (
	stSendCall    = iota // controller calls SendBatch
	stSendReturn         // SendBatch returns
	stAtStub             // the FlowMod reaches the stub's handler
	stStubReplied        // the stub has sent the covering barrier reply
	stAcked              // the ack reaches the controller (future: ConfirmedAt)
	stAwaited            // futures only: AwaitAck returns
	numStamps
)

// tcpSpanNames[i] is the span between stamp i and stamp i+1.
var tcpSpanNames = [numStamps - 1]string{
	"ctrl.send", "proxy.forward", "proxy.barrier_wait", "proxy.confirm", "ctrl.future",
}

// stamps is one sampled update in flight; the driver, the stub's reader
// and the controller's reader each write their own entries.
type stamps struct {
	xid atomic.Uint32
	t   [numStamps]atomic.Int64
}

// traceRec is a finished sampled update.
type traceRec struct {
	sw  int32
	xid uint32
	t   [numStamps]int64
}

// spanLog keeps finished sampled updates in memory preallocated before
// the run; nothing is formatted or written until the run is over.
type spanLog struct {
	recs []traceRec
	n    atomic.Int64
}

func newSpanLog(capacity int) *spanLog { return &spanLog{recs: make([]traceRec, capacity)} }

// add stores one finished update; a full log drops it.
func (l *spanLog) add(sw int, s *stamps) {
	i := l.n.Add(1) - 1
	if int(i) >= len(l.recs) {
		return
	}
	r := &l.recs[i]
	r.sw, r.xid = int32(sw), s.xid.Load()
	for k := range r.t {
		r.t[k] = s.t[k].Load()
	}
}

func (l *spanLog) len() int {
	n := int(l.n.Load())
	if n > len(l.recs) {
		n = len(l.recs)
	}
	return n
}

// spans expands the log into update spans and their children, times
// relative to base.
func (l *spanLog) spans(workload string, base int64) []span {
	var out []span
	for _, r := range l.recs[:l.len()] {
		id := fmt.Sprintf("%s/sw%02d/%d", workload, r.sw, r.xid)
		end := r.t[stAcked]
		if r.t[stAwaited] != 0 {
			end = r.t[stAwaited]
		}
		out = append(out, span{ID: id, Name: "update", Start: r.t[stSendCall] - base, End: end - base})
		for k, name := range tcpSpanNames {
			if r.t[k] == 0 || r.t[k+1] == 0 {
				continue
			}
			s := span{ID: id, Name: name, Parent: "update", Start: r.t[k] - base, End: r.t[k+1] - base}
			if s.End < s.Start {
				// The next stamp was taken on another goroutine before
				// this call returned: the interval is empty, not negative.
				s.End = s.Start
			}
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%q,"name":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Name, s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary is what a traced run reports about its spans.
type spanSummary struct {
	updates  int
	p50      map[string]float64 // span name → median duration, ns
	selfP50  float64            // median self time of the update span, ns
	coverage float64            // mean share of an update span its children cover
}

// summarize computes per-name median durations and how much of each
// update span its children account for.
func summarize(spans []span) spanSummary {
	durs := make(map[string][]float64)
	parents := make(map[string]interval)
	children := make(map[string][]interval)
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
		if s.Parent == "" {
			parents[s.ID] = interval{s.Start, s.End}
		} else {
			children[s.ID] = append(children[s.ID], interval{s.Start, s.End})
		}
	}
	sum := spanSummary{updates: len(parents), p50: make(map[string]float64)}
	for name, d := range durs {
		sum.p50[name] = median(d)
	}
	var selfs []float64
	var covered float64
	counted := 0
	for id, p := range parents {
		self := selfTime(p, children[id])
		selfs = append(selfs, float64(self))
		if d := p.end - p.start; d > 0 {
			covered += 1 - float64(self)/float64(d)
			counted++
		}
	}
	sum.selfP50 = median(selfs)
	if counted > 0 {
		sum.coverage = covered / float64(counted)
	}
	return sum
}
