package main

import "testing"

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		{name: "op", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b", start: 40, end: 70, parent: 0},
		{name: "a.x", start: 12, end: 20, parent: 1},
	}
	got := selfTimes(spans)
	want := []int64{50, 12, 30, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "run", start: 0, end: 100, parent: -1},
		{name: "c1", start: 10, end: 40, parent: 0},
		{name: "c2", start: 30, end: 60, parent: 0},  // overlaps c1
		{name: "c3", start: 35, end: 50, parent: 0},  // inside c1 ∪ c2
		{name: "c4", start: 90, end: 120, parent: 0}, // runs past the parent
		{name: "c5", start: 60, end: 65, parent: 0},  // touches c2
	}
	// Covered: [10,65] ∪ [90,100] = 55 + 10.
	if got := selfTimes(spans)[0]; got != 35 {
		t.Fatalf("self(run) = %d, want 35", got)
	}
}

func TestTracerParentsAndNil(t *testing.T) {
	var off *tracer
	if id := off.beginOp("op", 0); id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	off.end(-1)
	off.setCount(-1, 3)
	off.endOp(-1)

	tr := newTracer()
	root := tr.beginOp("op", 7)
	a := tr.begin("a")
	b := tr.begin("b")
	tr.end(b)
	tr.end(a)
	c := tr.begin("c")
	tr.setCount(c, 5)
	tr.end(c)
	tr.endOp(root)
	probe := tr.begin("p")
	tr.end(probe)

	wantParent := []int32{-1, root, a, root, -1}
	wantOp := []int32{7, 7, 7, 7, -1}
	for i, s := range tr.spans {
		if s.parent != wantParent[i] || s.op != wantOp[i] {
			t.Errorf("span %s: parent %d op %d, want %d %d", s.name, s.parent, s.op, wantParent[i], wantOp[i])
		}
		if s.end < s.start {
			t.Errorf("span %s ends before it starts", s.name)
		}
	}
	if tr.spans[c].count != 5 {
		t.Errorf("count = %d, want 5", tr.spans[c].count)
	}
}

func TestPerCount(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "cvm.Fleet.Run", start: 0, end: 10_000, parent: -1, count: 4},
		{name: "chn.send", start: 1_000, end: 3_000, parent: 0},
		{name: "cvm.Fleet.Run", start: 20_000, end: 26_000, parent: -1, count: 2},
	}}
	// Self time 8 µs + 6 µs over 6 steps.
	if got := perCount(tr, "cvm.Fleet.Run"); got != 14.0/6 {
		t.Fatalf("perCount = %v, want %v", got, 14.0/6)
	}
}
