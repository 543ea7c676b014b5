package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call (the simulator itself is not instrumented).
// Times are host nanoseconds since the tracer was created.
type span struct {
	name       string
	start, end int64
	parent     int32 // index into tracer.spans; -1 for an op's root span
	op         int32 // per-op id shared by every span of one op; -1 in probes
	count      int64 // work units the call did (fleet steps, replays), if known
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: begin and end return at once, so the untraced run pays
// one nil check per call site.
//
// The tracer is not locked. Fleet tasks record from the machine
// goroutines, but the fleet stepper runs one machine at a time and hands
// control over through channels, so the accesses never overlap.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32
	op    int32
}

// maxSpans bounds a tracer's memory (about 64 MB); a traced loop ends
// early once it is reached.
const maxSpans = 1 << 20

// full reports whether the tracer has reached maxSpans.
func (t *tracer) full() bool { return t != nil && len(t.spans) >= maxSpans }

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), op: -1, spans: make([]span, 0, 1<<16)}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), parent: parent, op: t.op})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// setCount attaches a work count to span id.
func (t *tracer) setCount(id int32, n uint64) {
	if t == nil {
		return
	}
	t.spans[id].count = int64(n)
}

// beginOp opens the root span of op number op.
func (t *tracer) beginOp(name string, op int) int32 {
	if t == nil {
		return -1
	}
	t.op = int32(op)
	return t.begin(name)
}

// endOp closes an op's root span.
func (t *tracer) endOp(id int32) {
	if t == nil {
		return
	}
	t.end(id)
	t.op = -1
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children may overlap each
// other (calls made from several goroutines); the covered part is the
// union of their intervals clipped to the parent's.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(spans, kids[i], s.start, s.end)
	}
	return self
}

// covered returns the length of the union of the given spans' intervals
// within [lo, hi].
func covered(spans []span, ids []int32, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ids))
	for _, id := range ids {
		a, b := spans[id].start, spans[id].end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, v := range iv {
		if v[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v[0], v[1]
			continue
		}
		if v[1] > curB {
			curB = v[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// durationsUS returns the duration in microseconds of every span named
// name.
func durationsUS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// maxWrittenSpans bounds the span file; the in-memory set behind the
// metrics is not truncated.
const maxWrittenSpans = 100_000

// writeChromeTrace writes the first maxWrittenSpans spans as Chrome
// trace_event JSON (load it in chrome://tracing or Perfetto).
func writeChromeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if len(spans) > maxWrittenSpans {
		spans = spans[:maxWrittenSpans]
	}
	fmt.Fprint(w, "{\"traceEvents\":[")
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		err := enc.Encode(event{
			Name: s.name, Ph: "X", TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: 1, Args: map[string]any{"id": i, "parent": s.parent, "op": s.op, "count": s.count},
		})
		if err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
