package main

import "testing"

// Two fresh enclave-kv deployments of one seed must run the same ops to
// the same exact counters, and every op must pass its output check.
func TestKVOpsDeterministicAndChecked(t *testing.T) {
	var first ledger
	for rep := 0; rep < 2; rep++ {
		inst, err := setupKV(3)
		if err != nil {
			t.Fatal(err)
		}
		var l ledger
		for op := 0; op < 2; op++ {
			d, err := step(inst, op, nil)
			if err != nil {
				inst.release()
				t.Fatalf("op %d: %v", op, err)
			}
			l = l.add(d)
		}
		inst.release()
		if l[cVlogRecords] != 2*kvBatch {
			t.Errorf("%d audit records for 2 ops, want %d", l[cVlogRecords], 2*kvBatch)
		}
		if rep == 1 && l != first {
			t.Fatalf("second deployment's counters {%v} differ from {%v}", l, first)
		}
		first = l
	}
}

// A traced fleet op records its channel calls from the machine
// goroutines; under -race this checks that the stepper's hand-offs order
// every tracer access.
func TestFleetOpTraced(t *testing.T) {
	inst, err := setupFleet(5)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.release()
	tr := newTracer()
	root := tr.beginOp("fleet-echo", 0)
	d, err := step(inst, 0, tr)
	tr.endOp(root)
	if err != nil {
		t.Fatal(err)
	}
	if d[cFleetSteps] == 0 || d[cFrames] == 0 {
		t.Fatalf("op made %d steps and %d frames", d[cFleetSteps], d[cFrames])
	}
	run := int32(-1)
	for i, s := range tr.spans {
		if s.name == "cvm.Fleet.Run" {
			run = int32(i)
		}
	}
	if run < 0 || tr.spans[run].count != int64(d[cFleetSteps]) {
		t.Fatalf("Run span missing or its step count differs from %d", d[cFleetSteps])
	}
	sends := 0
	for _, s := range tr.spans {
		if s.name == "chn.send" {
			sends++
			if s.parent != run || s.op != 0 {
				t.Fatalf("chn.send span has parent %d op %d, want %d 0", s.parent, s.op, run)
			}
		}
	}
	if want := 2 * fleetSessions * fleetRounds; sends != want {
		t.Fatalf("%d chn.send spans, want %d", sends, want)
	}
}
