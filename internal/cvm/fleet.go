package cvm

// Fleet assembly: N Veil CVMs booted against one shared PSP identity,
// connected by a simulated fabric, and driven in virtual-time lockstep.
//
// One goroutine drives the whole fleet: the stepper calls each machine
// directly, so exactly one machine runs at any instant and a run is
// byte-deterministic for a given seed regardless of GOMAXPROCS or host
// scheduling.
//
// The rendezvous rule is classic conservative discrete-event simulation:
// every machine exposes a "next event" virtual time — its own clock while
// it has runnable work, the earliest pending fabric arrival while it is
// blocked — and the stepper always advances the machine with the lowest
// one (ties broken by machine id). A blocked machine jumps its clock to
// the arrival (charged as CostIdle) and takes delivery through its
// interrupt path, exactly as a completion interrupt wakes a WaitIntr
// sleeper on a single machine.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"veil/internal/attest"
	"veil/internal/fabric"
	"veil/internal/obs"
	"veil/internal/sched"
	"veil/internal/snp"
)

// ErrFleetStalled is returned when every live machine is blocked and no
// frame is in flight toward any of them — the fleet-level analogue of
// sched.ErrStalled.
var ErrFleetStalled = errors.New("cvm: fleet stalled: all machines blocked with no frame in flight")

// FleetOptions configures BootFleet.
type FleetOptions struct {
	// Machines is the fleet size (>= 2).
	Machines int
	// Seed derives every machine's key-material reader, the shared PSP
	// identity and the fabric's link generators. Equal seeds reproduce the
	// fleet byte-for-byte.
	Seed int64
	// Base is the per-machine template (memory, VCPUs, log pages, flight
	// options). Veil is forced on; Rand, PSP and Fleet are overwritten per
	// machine. Base.Recorder is ignored — use Recorders.
	Base Options
	// Link is the default fabric link model; Links overrides per directed
	// (src, dst) pair.
	Link  fabric.LinkModel
	Links map[[2]int]fabric.LinkModel
	// Recorders, when non-empty, must hold one recorder per machine; each
	// is attached before launch so traces capture boot.
	Recorders []*obs.Recorder
}

// Fleet is a booted set of machines plus their fabric.
type Fleet struct {
	CVMs []*CVM
	Fab  *fabric.Fabric
	PSP  *attest.PSP
	// Directory maps machine id → expected launch measurement; it is
	// provisioned into every member's VeilS-Channel at boot.
	Directory map[int][32]byte
}

// fleetRand is the fleet's deterministic key-material source (the sim-path
// stand-in for crypto/rand.Reader; same construction the bench harness
// uses).
type fleetRand struct{ r *rand.Rand }

func (d fleetRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

// machineRand derives machine id's key reader from the fleet seed; id -1
// is the shared PSP identity. The multiplier keeps per-machine streams
// disjoint from the fabric's per-link generators.
func machineRand(seed int64, id int) io.Reader {
	return fleetRand{r: rand.New(rand.NewSource(seed*2_654_435_761 + int64(id)))}
}

// BootFleet boots opts.Machines Veil CVMs, each with its own seeded key
// reader and fleet identity, sharing one PSP, connected by a seeded
// fabric. The measurement directory is collected from the booted machines
// and provisioned into every member's VeilS-Channel, and each machine's
// kernel stub is wired to transmit on the fabric.
func BootFleet(opts FleetOptions) (*Fleet, error) {
	if opts.Machines < 2 {
		return nil, fmt.Errorf("cvm: fleet needs >= 2 machines, got %d", opts.Machines)
	}
	if len(opts.Recorders) != 0 && len(opts.Recorders) != opts.Machines {
		return nil, fmt.Errorf("cvm: %d recorders for %d machines", len(opts.Recorders), opts.Machines)
	}
	psp, err := attest.NewPSP(machineRand(opts.Seed, -1))
	if err != nil {
		return nil, err
	}
	fab, err := fabric.New(fabric.Config{
		Machines: opts.Machines,
		Seed:     opts.Seed,
		Default:  opts.Link,
		Links:    opts.Links,
	})
	if err != nil {
		return nil, err
	}
	f := &Fleet{Fab: fab, PSP: psp, Directory: make(map[int][32]byte)}
	for id := 0; id < opts.Machines; id++ {
		o := opts.Base
		o.Veil = true
		o.PSP = psp
		o.Rand = machineRand(opts.Seed, id)
		o.Fleet = &FleetMember{ID: id}
		o.Recorder = nil
		if len(opts.Recorders) > 0 {
			o.Recorder = opts.Recorders[id]
			o.Recorder.SetMachine(id)
		}
		c, err := Boot(o)
		if err != nil {
			return nil, fmt.Errorf("cvm: fleet machine %d: %w", id, err)
		}
		f.CVMs = append(f.CVMs, c)
		f.Directory[id] = c.ExpectedMeasurement()
	}
	for id, c := range f.CVMs {
		c.CHN.SetDirectory(f.Directory)
		c.M.SetMachineID(id)
		src := id
		clock := c.M.Clock()
		tx := func(dst int, frame []byte) error {
			return fab.Send(src, dst, frame, clock.Cycles())
		}
		for _, st := range c.Stubs {
			st.SetNetSender(tx)
		}
		// Surface this machine's fabric-link counters and wire-latency
		// gauges through its recorder, so fleet exporters label them per
		// machine. Pull-based: nothing here runs on the message hot path.
		if r := c.M.Recorder(); r != nil {
			r.AddAuxCounters(fab.CountersFor(id))
			r.AddAuxGauges(fab.GaugesFor(id))
		}
	}
	return f, nil
}

// Machine returns fleet member id (nil when out of range).
func (f *Fleet) Machine(id int) *CVM {
	if id < 0 || id >= len(f.CVMs) {
		return nil
	}
	return f.CVMs[id]
}

// MachineStats is one machine's share of a fleet run.
type MachineStats struct {
	ID int
	// Cycles is the machine's final virtual clock (including CostIdle
	// rendezvous jumps).
	Cycles uint64
	// IdleCycles is the CostIdle share of Cycles — time spent parked
	// waiting for fabric arrivals.
	IdleCycles uint64
	Sched      sched.Stats
}

// FleetStats aggregates one Fleet.Run.
type FleetStats struct {
	Machines []MachineStats
	Fabric   fabric.Stats
	// Steps counts stepper decisions; IdleJumps counts blocked-machine
	// clock advances to a fabric arrival.
	Steps     uint64
	IdleJumps uint64
}

// fleetMaxSteps bounds Run as a liveness backstop (two machines
// ping-ponging one frame per step burn two steps per round trip; this
// allows millions).
const fleetMaxSteps = 1 << 24

// machine phases tracked by the stepper.
type fleetPhase int

const (
	phaseRunnable fleetPhase = iota
	phaseWaiting             // StepAllBlocked: only a fabric delivery can help
	phaseDone
)

type fleetDomain struct {
	id    int
	c     *CVM
	sch   *sched.Scheduler
	phase fleetPhase
	// clock is the stepper's view of the machine's clock: zero when Run
	// starts, refreshed after each of this machine's steps.
	clock uint64
}

// Run drives every machine to completion in virtual-time lockstep. scheds
// holds one scheduler per machine (built over that machine's snp.Machine,
// tasks already added); Run wires each machine's interrupt path to its
// scheduler's Wake and steps the fleet until all schedulers report done.
func (f *Fleet) Run(scheds []*sched.Scheduler) (FleetStats, error) {
	if len(scheds) != len(f.CVMs) {
		return FleetStats{}, fmt.Errorf("cvm: %d schedulers for %d machines", len(scheds), len(f.CVMs))
	}
	domains := make([]*fleetDomain, len(f.CVMs))
	for i, c := range f.CVMs {
		sch := scheds[i]
		c.OnInterrupt(func(vcpu int) { sch.Wake(vcpu) })
		domains[i] = &fleetDomain{id: i, c: c, sch: sch}
	}
	stats, err := f.step(domains)
	for _, d := range domains {
		clock := d.c.M.Clock()
		stats.Machines = append(stats.Machines, MachineStats{
			ID: d.id, Cycles: clock.Cycles(), IdleCycles: clock.CyclesOf(snp.CostIdle), Sched: d.sch.Stats(),
		})
	}
	stats.Fabric = f.Fab.Stats()
	return stats, err
}

// step is the rendezvous loop. Phase rules:
//   - runnable machines advertise their own clock as their next event;
//   - waiting machines advertise their earliest fabric arrival (nothing
//     pending → no event: they are unreachable until someone sends);
//   - the lowest (event time, id) pair goes next.
//
// "Their own clock" is the stepper's view (fleetDomain.clock), which is
// zero for every machine when Run starts and is refreshed only after that
// machine's own step (a delivery is always followed by one). The first
// picks of a second Run on the same fleet therefore go in id order,
// whatever the real clocks say.
func (f *Fleet) step(domains []*fleetDomain) (FleetStats, error) {
	var st FleetStats
	for ; st.Steps < fleetMaxSteps; st.Steps++ {
		var pick *fleetDomain
		var pickAt uint64
		live := false
		for _, d := range domains {
			var at uint64
			switch d.phase {
			case phaseRunnable:
				live = true
				at = d.clock
			case phaseWaiting:
				live = true
				arr, ok := f.Fab.NextArrival(d.id)
				if !ok {
					continue
				}
				if arr < d.clock {
					arr = d.clock
				}
				at = arr
			default:
				continue
			}
			if pick == nil || at < pickAt {
				pick, pickAt = d, at
			}
		}
		if pick == nil {
			if !live {
				return st, nil // every machine done
			}
			return st, fmt.Errorf("%w (%d machines waiting)", ErrFleetStalled, countPhase(domains, phaseWaiting))
		}
		clock := pick.c.M.Clock()

		// Take delivery of everything due at the event time. A waiting
		// machine jumps its clock to the arrival first (CostIdle).
		if due := f.Fab.Due(pick.id, pickAt); len(due) > 0 {
			if pick.phase == phaseWaiting {
				clock.AdvanceTo(pickAt, snp.CostIdle)
				st.IdleJumps++
			}
			for _, m := range due {
				pick.c.PushNetFrame(m.Payload)
			}
			// One completion interrupt per delivery batch (NIC coalescing):
			// the Dom-UNT handler runs, the scheduler's Wake unblocks the
			// receive path.
			if err := pick.c.HV.InjectInterrupt(0); err != nil {
				return st, fmt.Errorf("cvm: fleet machine %d delivery: %w", pick.id, err)
			}
			pick.phase = phaseRunnable
		} else if pick.phase == phaseWaiting {
			// The arrival indexed this pick but a competing earlier event
			// consumed it (cannot happen with per-destination queues, but
			// cheap to keep the loop total): re-evaluate.
			continue
		}

		status, err := pick.sch.Step()
		pick.clock = clock.Cycles()
		if err != nil {
			return st, fmt.Errorf("cvm: fleet machine %d: %w", pick.id, err)
		}
		switch status {
		case sched.StepDone:
			pick.phase = phaseDone
		case sched.StepAllBlocked:
			pick.phase = phaseWaiting
		default:
			pick.phase = phaseRunnable
		}
	}
	return st, fmt.Errorf("cvm: fleet exceeded %d steps: %w", uint64(fleetMaxSteps), ErrFleetStalled)
}

func countPhase(domains []*fleetDomain, p fleetPhase) int {
	n := 0
	for _, d := range domains {
		if d.phase == p {
			n++
		}
	}
	return n
}
