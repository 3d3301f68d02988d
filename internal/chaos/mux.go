package chaos

import (
	"fmt"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/wire"
)

// InstanceDecision is one node's decision for one multiplexed broadcast.
type InstanceDecision struct {
	Decided, Accepted bool
	Value             wire.Value
	// Round is the absolute decision round; StartRound the instance's
	// admission round. Round-StartRound+1 is the instance-relative round
	// the paper's bounds apply to.
	Round      uint32
	StartRound uint32
}

// MuxOutcome is the result of a multiplexed chaos run: K concurrent ERB
// broadcasts over one runtime.Mux per node, under one fault schedule.
type MuxOutcome struct {
	*Outcome
	K int
	// Initiators, InitValues and InstanceIDs describe broadcast j.
	Initiators  []wire.NodeID
	InitValues  []wire.Value
	InstanceIDs []uint32
	// Decisions[j][i] is node i's decision for broadcast j.
	Decisions [][]InstanceDecision
}

// RunMuxERB runs one seeded chaos schedule against k concurrent ERB
// broadcasts (initiators round-robin) multiplexed over a fresh deployment
// of n nodes tolerating t faults.
func RunMuxERB(seed int64, n, t, k int) (*MuxOutcome, error) {
	return RunMuxERBSchedule(seed, n, t, k, Generate(seed, n, t, t+2))
}

// RunMuxERBSchedule is RunMuxERB with an explicit schedule.
func RunMuxERBSchedule(seed int64, n, t, k int, sched *Schedule) (*MuxOutcome, error) {
	if k < 1 {
		return nil, fmt.Errorf("chaos: need at least 1 broadcast, got %d", k)
	}
	h, err := arm(seed, n, t, sched)
	if err != nil {
		return nil, err
	}
	initiators := make([]wire.NodeID, k)
	values := make([]wire.Value, k)
	for j := range initiators {
		initiators[j] = wire.NodeID(j % n)
		if values[j], err = h.d.Encls[initiators[j]].RandomValue(); err != nil {
			return nil, err
		}
	}
	engines := make([][]*erb.Engine, n)
	handles := make([][]*runtime.Instance, n)
	// host queues the k broadcasts on one node's mux.
	host := func(p *runtime.Peer) (runtime.Protocol, int, error) {
		m := runtime.NewMux(p, runtime.MuxConfig{})
		engs := make([]*erb.Engine, k)
		engines[p.ID()] = engs
		handles[p.ID()] = make([]*runtime.Instance, k)
		for j := range engs {
			admit := func(inst *runtime.Instance) (runtime.Protocol, error) {
				e, eerr := erb.NewEngine(inst, erb.Config{
					T:                  t,
					StartRound:         inst.StartRound(),
					ExpectedInitiators: []wire.NodeID{initiators[j]},
				})
				if eerr != nil {
					return nil, eerr
				}
				if p.ID() == initiators[j] {
					e.SetInput(values[j])
				}
				engs[j] = e
				return e, nil
			}
			it, serr := m.Spawn(t+2, admit)
			if serr != nil {
				return nil, 0, serr
			}
			handles[p.ID()][j] = it
		}
		return m, m.PlannedRounds(), nil
	}
	if err = h.d.RunInstance(host, h.settle); err != nil {
		return nil, err
	}

	mo := &MuxOutcome{
		Outcome:     h.outcome(),
		K:           k,
		Initiators:  initiators,
		InitValues:  values,
		InstanceIDs: make([]uint32, k),
		Decisions:   make([][]InstanceDecision, k),
	}
	for j := 0; j < k; j++ {
		mo.InstanceIDs[j] = handles[0][j].Instance()
		mo.Decisions[j] = make([]InstanceDecision, n)
		for i := 0; i < n; i++ {
			dec := &mo.Decisions[j][i]
			dec.StartRound = handles[i][j].StartRound()
			if engines[i][j] == nil {
				continue
			}
			res, ok := engines[i][j].Result(initiators[j])
			dec.Decided = ok
			dec.Accepted = res.Accepted
			dec.Value = res.Value
			dec.Round = res.Round
		}
	}
	return mo, nil
}

// CheckMuxERB asserts the ERB properties instance by instance over the
// honest nodes of a multiplexed outcome: agreement, validity, integrity
// and termination within min{f+2, t+2} instance-relative rounds for every
// one of the K broadcasts. Violations name the offending instance and
// embed its instance-filtered flight dump.
func CheckMuxERB(o *MuxOutcome) error {
	if err := o.checkLiveness(); err != nil {
		return err
	}
	for j := 0; j < o.K; j++ {
		inst := o.InstanceIDs[j]
		fail := func(property string, node wire.NodeID, format string, args ...any) error {
			return o.violationAt(property, node, inst, format, args...)
		}
		in := fmt.Sprintf(" in instance %d", inst)
		if err := o.checkBroadcast(o.Initiators[j], o.InitValues[j], o.Decisions[j], in, fail); err != nil {
			return err
		}
	}
	return nil
}

// violationAt is violation with an instance attribution: the embedded
// flight dump is the offending instance's whole timeline on that node —
// filtered out of the full event stream, so it is exact however many
// neighbor instances interleaved with it, and bounded by one broadcast's
// events rather than by a line cap.
func (o *Outcome) violationAt(property string, node wire.NodeID, instance uint32, format string, args ...any) error {
	err := fmt.Errorf("chaos: %s violated: %s — %s", property, fmt.Sprintf(format, args...), o.Repro())
	if flight := o.Trace.FlightInstanceString(node, instance); flight != "" {
		err = fmt.Errorf("%w\nflight recorder, node %d, instance %d (last round %d):\n%s",
			err, node, instance, o.Trace.LastRound(node), flight)
	}
	return err
}
