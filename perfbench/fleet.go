package main

// fleet-echo: three Veil CVMs booted as one fleet, with attested
// VeilS-Channel sessions in a triangle (0→1, 0→2, 1→2). Setup boots and
// completes the handshakes; one op is one lockstep run of echo rounds on
// every session, so it stresses the fleet stepper, the fabric, channel
// AEAD and scheduler block/wake without boot. Every scheduler slice also
// appends one audit record synchronously (VeilS-Log without the ring).

import (
	"bytes"
	"fmt"

	"veil/internal/cvm"
	"veil/internal/fabric"
	"veil/internal/sched"
	"veil/internal/services/chn"
)

const (
	fleetMachines = 3
	fleetSessions = 3
	// fleetRounds is the request/echo rounds per session in one op.
	fleetRounds = 96
	// Echo payloads are seeded sizes in [fleetMsgMin, fleetMsgMax].
	fleetMsgMin = 16
	fleetMsgMax = 512
	// The link model: ~0.5 ms base latency at the simulated clock, with
	// jitter and no loss. It is longer than a scheduler slice, so machines
	// park on the fabric and the stepper's idle jumps are exercised.
	fleetLatency  = 1_000_000
	fleetJitter   = 100_000
	fleetMemBytes = 32 << 20
	fleetLogPages = 128
)

// fleetEnd is one machine's end of one session. peer is the machine an
// initiator dials.
type fleetEnd struct {
	init, peer int
	sid        uint32
	initiator  bool
	dialed     bool
	sent       int
	received   int
	// msgs are the initiator's requests for the current op.
	msgs [][]byte
}

func (e *fleetEnd) done(rounds int) bool {
	return e.sent >= rounds && e.received >= rounds
}

// fleetTopology returns, per machine, the session ends it holds. Session
// ids follow each initiator's dial order.
func fleetTopology() [][]*fleetEnd {
	return [][]*fleetEnd{
		{{init: 0, peer: 1, sid: 0, initiator: true}, {init: 0, peer: 2, sid: 1, initiator: true}},
		{{init: 0, sid: 0}, {init: 1, peer: 2, sid: 0, initiator: true}},
		{{init: 0, sid: 1}, {init: 1, sid: 0}},
	}
}

// fleetTask drives one machine for one Run: relay arrived frames to
// VeilS-Channel, append one audit record, and pump every session end.
type fleetTask struct {
	id         int
	c          *cvm.CVM
	ends       []*fleetEnd
	rounds     int
	tr         *tracer
	slices     int
	mismatches int
	rec        []byte
}

func (t *fleetTask) Step(int) (sched.Status, error) {
	st := t.c.Stub
	frames := t.c.DrainNetFrames()
	for _, fr := range frames {
		s := t.tr.begin("chn.deliver")
		err := st.ChnDeliver(fr)
		t.tr.end(s)
		if err != nil {
			return sched.Done, err
		}
	}
	progressed := len(frames) > 0

	t.slices++
	t.rec = fmt.Appendf(t.rec[:0], "fleet-echo m%d slice %d", t.id, t.slices)
	s := t.tr.begin("vlog.append")
	err := st.AuditEmit(t.rec)
	t.tr.end(s)
	if err != nil {
		return sched.Done, err
	}

	allDone := true
	for _, e := range t.ends {
		if e.initiator && !e.dialed {
			s := t.tr.begin("chn.dial")
			sid, err := st.ChnDial(e.peer)
			t.tr.end(s)
			if err != nil {
				return sched.Done, err
			}
			if sid != e.sid {
				return sched.Done, fmt.Errorf("m%d dial to m%d got sid %d, want %d", t.id, e.peer, sid, e.sid)
			}
			e.dialed = true
			progressed = true
		}
		s := t.tr.begin("chn.state")
		state, err := st.ChnState(e.init, e.sid)
		t.tr.end(s)
		if err != nil {
			return sched.Done, err
		}
		if state != chn.StateEstablished {
			allDone = false
			continue
		}
		for {
			s := t.tr.begin("chn.recv")
			msg, ok, err := st.ChnRecv(e.init, e.sid)
			t.tr.end(s)
			if err != nil {
				return sched.Done, err
			}
			if !ok {
				break
			}
			progressed = true
			e.received++
			if e.initiator {
				if e.received > len(e.msgs) || !bytes.Equal(msg, e.msgs[e.received-1]) {
					t.mismatches++
				}
				continue
			}
			if err := t.send(e, msg); err != nil {
				return sched.Done, err
			}
		}
		// Lockstep: the next request goes out only after the previous
		// echo landed, so the message count per op is exact.
		if e.initiator && e.sent < t.rounds && e.sent == e.received {
			if err := t.send(e, e.msgs[e.sent]); err != nil {
				return sched.Done, err
			}
			progressed = true
		}
		if !e.done(t.rounds) {
			allDone = false
		}
	}
	switch {
	case allDone:
		return sched.Done, nil
	case progressed:
		return sched.Yield, nil
	}
	return sched.Blocked, nil
}

func (t *fleetTask) send(e *fleetEnd, msg []byte) error {
	s := t.tr.begin("chn.send")
	err := t.c.Stub.ChnSend(e.init, e.sid, msg)
	t.tr.end(s)
	e.sent++
	return err
}

type fleetInst struct {
	f      *cvm.Fleet
	seed   int64
	ends   [][]*fleetEnd
	tasks  []*fleetTask
	scheds []*sched.Scheduler
	logs   []*logDrain
	rounds int // echo rounds per session in the current Run
	// steps and idleJumps accumulate FleetStats over every Run.
	steps, idleJumps uint64
	received         uint64 // channel messages opened fleet-wide before the op
}

func setupFleet(seed int64) (*fleetInst, error) {
	f, err := cvm.BootFleet(cvm.FleetOptions{
		Machines: fleetMachines,
		Seed:     seed,
		Base:     cvm.Options{MemBytes: fleetMemBytes, VCPUs: 1, LogPages: fleetLogPages},
		Link:     fabric.LinkModel{BaseLatency: fleetLatency, Jitter: fleetJitter},
	})
	if err != nil {
		return nil, fmt.Errorf("boot fleet: %w", err)
	}
	w := &fleetInst{f: f, seed: seed, ends: fleetTopology()}
	for id, c := range f.CVMs {
		d, err := newLogDrain(c, seed+int64(id)*7)
		if err != nil {
			w.release()
			return nil, fmt.Errorf("m%d: %w", id, err)
		}
		w.logs = append(w.logs, d)
	}
	// The handshake run: zero echo rounds, every initiator dials, and the
	// run ends once every session end is established.
	if err := w.newRun(0); err != nil {
		w.release()
		return nil, err
	}
	if err := w.run(nil); err != nil {
		w.release()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	for id, c := range f.CVMs {
		if got := c.CHN.Stats().Established; got != uint64(len(w.ends[id])) {
			w.release()
			return nil, fmt.Errorf("m%d established %d sessions, want %d", id, got, len(w.ends[id]))
		}
	}
	if err := w.verify(); err != nil {
		w.release()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	return w, nil
}

// newRun builds fresh schedulers and tasks for one Run of rounds echo
// rounds per session.
func (w *fleetInst) newRun(rounds int) error {
	w.rounds = rounds
	w.tasks = w.tasks[:0]
	w.scheds = w.scheds[:0]
	for id, c := range w.f.CVMs {
		for _, e := range w.ends[id] {
			e.sent, e.received = 0, 0
		}
		t := &fleetTask{id: id, c: c, ends: w.ends[id], rounds: rounds}
		s := sched.New(sched.Config{Machine: c.M, VCPUs: 1, Seed: w.seed + int64(id)})
		if err := s.Add(0, 1, t); err != nil {
			return err
		}
		w.tasks = append(w.tasks, t)
		w.scheds = append(w.scheds, s)
	}
	return nil
}

func (w *fleetInst) prepare(op int) error {
	r := opRand(w.seed, op)
	if err := w.newRun(fleetRounds); err != nil {
		return err
	}
	for _, ends := range w.ends {
		for _, e := range ends {
			if !e.initiator {
				continue
			}
			e.msgs = e.msgs[:0]
			for i := 0; i < fleetRounds; i++ {
				m := make([]byte, fleetMsgMin+r.Intn(fleetMsgMax-fleetMsgMin+1))
				r.Read(m)
				e.msgs = append(e.msgs, m)
			}
		}
	}
	w.received = w.channelReceived()
	return nil
}

func (w *fleetInst) run(t *tracer) error {
	for _, task := range w.tasks {
		task.tr = t
	}
	s := t.begin("cvm.Fleet.Run")
	stats, err := w.f.Run(w.scheds)
	t.end(s)
	t.setCount(s, stats.Steps)
	w.steps += stats.Steps
	w.idleJumps += stats.IdleJumps
	return err
}

func (w *fleetInst) verify() error {
	for id, task := range w.tasks {
		if task.mismatches != 0 {
			return fmt.Errorf("m%d: %d echoes differ from their requests", id, task.mismatches)
		}
		for _, e := range task.ends {
			if !e.done(task.rounds) {
				return fmt.Errorf("m%d session (init %d, sid %d) incomplete: sent %d received %d",
					id, e.init, e.sid, e.sent, e.received)
			}
		}
		cs := w.f.CVMs[id].CHN.Stats()
		if cs.Refused != 0 || cs.Dropped != 0 {
			return fmt.Errorf("m%d channel refused %d, dropped %d", id, cs.Refused, cs.Dropped)
		}
	}
	if got, want := w.channelReceived()-w.received, uint64(2*fleetSessions*w.rounds); got != want {
		return fmt.Errorf("fleet opened %d messages, want %d", got, want)
	}
	for id, d := range w.logs {
		if err := d.check(); err != nil {
			return fmt.Errorf("m%d: %w", id, err)
		}
	}
	return nil
}

func (w *fleetInst) channelReceived() uint64 {
	var n uint64
	for _, c := range w.f.CVMs {
		n += c.CHN.Stats().Received
	}
	return n
}

func (w *fleetInst) ledger() ledger {
	var l ledger
	l[cFleetSteps], l[cIdleJumps], l[cFrames] = w.steps, w.idleJumps, w.f.Fab.Stats().Sent
	for i, c := range w.f.CVMs {
		if cy := c.M.Clock().Cycles(); cy > l[cVCycles] {
			l[cVCycles] = cy // the makespan: the slowest machine's clock
		}
		l.addMachine(c)
		l[cVlogRecords] += w.logs[i].records()
	}
	return l
}

func (w *fleetInst) release() {
	for _, c := range w.f.CVMs {
		c.M.Release()
	}
}
