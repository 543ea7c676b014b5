package cvm

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"veil/internal/core"
	"veil/internal/fabric"
	"veil/internal/sched"
	"veil/internal/services/chn"
	"veil/internal/snp"
)

func testFleetOptions(machines int, seed int64) FleetOptions {
	return FleetOptions{
		Machines: machines,
		Seed:     seed,
		Base:     Options{MemBytes: 32 << 20, VCPUs: 1, LogPages: 8},
		Link:     fabric.LinkModel{BaseLatency: 5_000, Jitter: 1_000},
	}
}

// chnPeer drives one machine's half of a dial → establish → echo exchange
// as a cooperative sched task: drain the NIC queue, relay every frame to
// VeilS-Channel, act on the session state, block when idle.
type chnPeer struct {
	c    *CVM
	stub *core.OSStub

	initiator bool
	self      int
	peer      int
	init      int // session initiator id
	sid       uint32
	rounds    int // messages this side must receive before finishing

	dialed   bool
	sent     int
	received int
	inbox    []string
	failed   error
}

func (p *chnPeer) deliverPending() (bool, error) {
	frames := p.c.DrainNetFrames()
	for _, fr := range frames {
		if err := p.stub.ChnDeliver(fr); err != nil {
			return false, err
		}
	}
	return len(frames) > 0, nil
}

func (p *chnPeer) Step(vcpu int) (sched.Status, error) {
	progressed, err := p.deliverPending()
	if err != nil {
		p.failed = err
		return sched.Done, err
	}
	if p.initiator && !p.dialed {
		sid, err := p.stub.ChnDial(p.peer)
		if err != nil {
			return sched.Done, err
		}
		p.sid, p.dialed = sid, true
		return sched.Yield, nil
	}
	state, err := p.stub.ChnState(p.init, p.sid)
	if err != nil {
		return sched.Done, err
	}
	if state != chn.StateEstablished {
		if progressed {
			return sched.Yield, nil
		}
		return sched.Blocked, nil
	}
	// Established: pull everything that decrypted, echo-reply, send our
	// own payload (initiator leads; responder answers one-for-one).
	for {
		msg, ok, err := p.stub.ChnRecv(p.init, p.sid)
		if err != nil {
			return sched.Done, err
		}
		if !ok {
			break
		}
		p.received++
		p.inbox = append(p.inbox, string(msg))
		if !p.initiator {
			reply := fmt.Sprintf("pong-%d-from-%d", p.received, p.self)
			if err := p.stub.ChnSend(p.init, p.sid, []byte(reply)); err != nil {
				return sched.Done, err
			}
			p.sent++
		}
		progressed = true
	}
	if p.initiator && p.sent < p.rounds {
		msg := fmt.Sprintf("ping-%d-from-%d", p.sent+1, p.self)
		if err := p.stub.ChnSend(p.init, p.sid, []byte(msg)); err != nil {
			return sched.Done, err
		}
		p.sent++
		return sched.Yield, nil
	}
	if p.received >= p.rounds {
		return sched.Done, nil
	}
	if progressed {
		return sched.Yield, nil
	}
	return sched.Blocked, nil
}

// runPingPong boots a 2-machine fleet and runs a full dial/establish/echo
// exchange, returning everything a caller might want to assert on.
func runPingPong(t *testing.T, seed int64, rounds int) (*Fleet, *chnPeer, *chnPeer, FleetStats) {
	t.Helper()
	f, err := BootFleet(testFleetOptions(2, seed))
	if err != nil {
		t.Fatalf("BootFleet: %v", err)
	}
	a, b, stats := pingPongOn(t, f, seed, rounds, 0)
	return f, a, b, stats
}

// pingPongOn runs one dial/establish/echo exchange between machines 0 and 1
// of an already-booted fleet, with fresh schedulers and peers. Machine init
// dials; it returns the initiator's peer, then the responder's.
func pingPongOn(t *testing.T, f *Fleet, seed int64, rounds, init int) (*chnPeer, *chnPeer, FleetStats) {
	t.Helper()
	resp := 1 - init
	a := &chnPeer{
		c: f.CVMs[init], stub: f.CVMs[init].Stub,
		initiator: true, self: init, peer: resp, init: init, rounds: rounds,
	}
	// The initiator's next dial takes its next session id.
	b := &chnPeer{
		c: f.CVMs[resp], stub: f.CVMs[resp].Stub,
		self: resp, peer: init, init: init, rounds: rounds,
		sid: uint32(f.CVMs[init].CHN.Stats().Dialed),
	}
	scheds := []*sched.Scheduler{
		sched.New(sched.Config{Machine: f.CVMs[0].M, VCPUs: 1, Seed: seed}),
		sched.New(sched.Config{Machine: f.CVMs[1].M, VCPUs: 1, Seed: seed + 1}),
	}
	if err := scheds[init].Add(0, 1, a); err != nil {
		t.Fatal(err)
	}
	if err := scheds[resp].Add(0, 1, b); err != nil {
		t.Fatal(err)
	}
	stats, err := f.Run(scheds)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	return a, b, stats
}

func TestFleetAttestedChannelPingPong(t *testing.T) {
	const rounds = 3
	f, a, b, stats := runPingPong(t, 11, rounds)

	if a.received != rounds || b.received != rounds {
		t.Fatalf("received: initiator %d, responder %d, want %d each", a.received, b.received, rounds)
	}
	if want := "ping-1-from-0"; b.inbox[0] != want {
		t.Fatalf("responder inbox[0] = %q, want %q", b.inbox[0], want)
	}
	if want := "pong-1-from-1"; a.inbox[0] != want {
		t.Fatalf("initiator inbox[0] = %q, want %q", a.inbox[0], want)
	}
	for id, c := range f.CVMs {
		st := c.CHN.Stats()
		if st.Established != 1 {
			t.Fatalf("machine %d established %d sessions, want 1", id, st.Established)
		}
		if st.Refused != 0 || st.Dropped != 0 {
			t.Fatalf("machine %d refused=%d dropped=%d on honest run", id, st.Refused, st.Dropped)
		}
	}
	if stats.Fabric.Delivered == 0 {
		t.Fatal("no fabric deliveries recorded")
	}
	for _, m := range stats.Machines {
		if m.Cycles == 0 {
			t.Fatalf("machine %d ran zero cycles", m.ID)
		}
	}
	if stats.IdleJumps == 0 {
		t.Fatal("no idle rendezvous jumps — machines never actually waited on the fabric")
	}
}

// fleetFingerprint flattens everything observable about a run into one
// comparable string.
func fleetFingerprint(f *Fleet, stats FleetStats, peers ...*chnPeer) string {
	s := fmt.Sprintf("steps=%d idle=%d fabric=%+v\n", stats.Steps, stats.IdleJumps, stats.Fabric)
	for _, m := range stats.Machines {
		s += fmt.Sprintf("m%d cycles=%d idle=%d sched=%+v\n", m.ID, m.Cycles, m.IdleCycles, m.Sched)
	}
	for id, c := range f.CVMs {
		s += fmt.Sprintf("m%d chn=%+v attr=%v\n", id, c.CHN.Stats(), c.M.Clock().Attribution().Map())
	}
	for _, p := range peers {
		s += fmt.Sprintf("peer%d inbox=%q\n", p.self, p.inbox)
	}
	return s
}

func TestFleetDeterministicAcrossRunsAndGOMAXPROCS(t *testing.T) {
	run := func() string {
		f, a, b, stats := runPingPong(t, 23, 4)
		return fleetFingerprint(f, stats, a, b)
	}
	first := run()
	second := run()
	if first != second {
		t.Fatalf("same-seed fleet runs diverged:\n--- first\n%s--- second\n%s", first, second)
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	third := run()
	if first != third {
		t.Fatalf("fleet run diverged under GOMAXPROCS=1:\n--- first\n%s--- third\n%s", first, third)
	}
}

func TestFleetSameSeedSameMeasurements(t *testing.T) {
	f1, err := BootFleet(testFleetOptions(3, 7))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := BootFleet(testFleetOptions(3, 7))
	if err != nil {
		t.Fatal(err)
	}
	for id := range f1.Directory {
		if f1.Directory[id] != f2.Directory[id] {
			t.Fatalf("machine %d measurement differs across same-seed boots", id)
		}
	}
	f3, err := BootFleet(testFleetOptions(3, 8))
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for id := range f1.Directory {
		if f1.Directory[id] == f3.Directory[id] {
			same++
		}
	}
	if same == len(f1.Directory) {
		t.Fatal("different fleet seeds produced identical measurements")
	}
}

func TestFleetStallDetected(t *testing.T) {
	f, err := BootFleet(testFleetOptions(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Two tasks that block immediately and forever: nothing in flight, so
	// the stepper must refuse rather than spin.
	blocker := sched.TaskFunc(func(vcpu int) (sched.Status, error) {
		return sched.Blocked, nil
	})
	scheds := []*sched.Scheduler{
		sched.New(sched.Config{Machine: f.CVMs[0].M, VCPUs: 1, Seed: 1}),
		sched.New(sched.Config{Machine: f.CVMs[1].M, VCPUs: 1, Seed: 2}),
	}
	for _, s := range scheds {
		if err := s.Add(0, 1, blocker); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := f.Run(scheds)
	if !errors.Is(err, ErrFleetStalled) {
		t.Fatalf("fleet of blocked machines: err = %v, want ErrFleetStalled", err)
	}
	checkMachineStats(t, stats, 2)
}

// TestFleetMachineErrorStopsRun: a task error on one machine ends the run
// with an error that wraps it and names the machine, and the stats still
// cover every machine.
func TestFleetMachineErrorStopsRun(t *testing.T) {
	f, err := BootFleet(testFleetOptions(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("task failed")
	// worker computes for 10k cycles per slice; it finishes after 50
	// slices, or fails on slice failAt.
	worker := func(c *CVM, failAt int) sched.Task {
		n := 0
		return sched.TaskFunc(func(vcpu int) (sched.Status, error) {
			c.M.Clock().Charge(snp.CostCompute, 10_000)
			if n++; n == failAt {
				return sched.Done, boom
			}
			if n == 50 {
				return sched.Done, nil
			}
			return sched.Yield, nil
		})
	}
	scheds := []*sched.Scheduler{
		sched.New(sched.Config{Machine: f.CVMs[0].M, VCPUs: 1, Seed: 1}),
		sched.New(sched.Config{Machine: f.CVMs[1].M, VCPUs: 1, Seed: 2}),
	}
	if err := scheds[0].Add(0, 1, worker(f.CVMs[0], -1)); err != nil {
		t.Fatal(err)
	}
	if err := scheds[1].Add(0, 1, worker(f.CVMs[1], 5)); err != nil {
		t.Fatal(err)
	}
	stats, err := f.Run(scheds)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want it to wrap the task error", err)
	}
	if !strings.Contains(err.Error(), "fleet machine 1") {
		t.Fatalf("err = %q, want it to name fleet machine 1", err)
	}
	checkMachineStats(t, stats, 2)
}

// checkMachineStats asserts stats hold one entry per machine, in id order,
// each with a clock that moved.
func checkMachineStats(t *testing.T, stats FleetStats, machines int) {
	t.Helper()
	if len(stats.Machines) != machines {
		t.Fatalf("stats cover %d machines, want %d", len(stats.Machines), machines)
	}
	for i, m := range stats.Machines {
		if m.ID != i || m.Cycles == 0 {
			t.Fatalf("stats.Machines[%d] = %+v, want ID %d with a nonzero clock", i, m, i)
		}
	}
}

// TestFleetRepeatedRunsPinned runs three exchanges on one fleet, the
// initiator alternating between the machines, and pins what each Run
// reports. The stepper's view of every clock starts at zero on each Run
// and is refreshed only by that machine's own step, so the first picks of
// a later Run go in machine-id order whatever the real clocks say; these
// values were recorded with that rule and move if it changes.
func TestFleetRepeatedRunsPinned(t *testing.T) {
	f, err := BootFleet(testFleetOptions(2, 31))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"steps=19 idle=3 fabric={Sent:9 Delivered:9 Dropped:0 Reordered:0 Injected:0} m0=48596589/47698 m1=48473809/39103",
		"steps=18 idle=2 fabric={Sent:18 Delivered:18 Dropped:0 Reordered:0 Injected:0} m0=49000137/81155 m1=49123560/204578",
		"steps=18 idle=2 fabric={Sent:27 Delivered:27 Dropped:0 Reordered:0 Injected:0} m0=49650153/246895 m1=49526786/237713",
	}
	for i, w := range want {
		_, _, stats := pingPongOn(t, f, int64(40+i), 3, i%2)
		got := fmt.Sprintf("steps=%d idle=%d fabric=%+v", stats.Steps, stats.IdleJumps, stats.Fabric)
		for _, m := range stats.Machines {
			got += fmt.Sprintf(" m%d=%d/%d", m.ID, m.Cycles, m.IdleCycles)
		}
		if got != w {
			t.Errorf("run %d:\n got %s\nwant %s", i, got, w)
		}
	}
}
