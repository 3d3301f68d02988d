package deploy

import (
	"fmt"
	"strings"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/core/erng"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/wire"
)

// RunInstance is the one owner of a protocol instance's lifecycle, the
// three rules the paper fixes for every ERB/ERNG run:
//
//   - P4: a node churned out by halt-on-divergence sits out — build is
//     called for every non-halted peer, in id order, and returns the
//     protocol the peer runs and its round count;
//   - S2: all live nodes start round 1 together — no peer starts until
//     every build succeeded, so a build error leaves the deployment as it
//     was;
//   - P6: "after every valid instance … nodes will increase all sequence
//     numbers by 1" — once drain (nil: Run) has emptied the simulator every
//     peer's sequence table and instance counter advance, halted peers
//     included (they never send again, so it cannot show), and a peer that
//     ran a runtime.Mux first moves its counter past the ids the mux
//     consumed, so no later instance reuses one.
//
// Between the builds and the start it opens the channels the live peers
// have not used yet (EstablishLinks): an instance talks over the full
// mesh unless Epoch knows better.
//
// A caller that wants a fault schedule, a deadline or a settling tail
// around the run supplies them as drain or sets them up beforehand; it
// reads decisions off the protocols it built once RunInstance returns.
func (d *Deployment) RunInstance(build func(p *runtime.Peer) (runtime.Protocol, int, error), drain func() error) error {
	return d.runInstance(build, drain, true)
}

// runInstance is RunInstance's body; with mesh false a channel is left
// to open at its first frame.
func (d *Deployment) runInstance(build func(p *runtime.Peer) (runtime.Protocol, int, error), drain func() error, mesh bool) error {
	type planned struct {
		proto  runtime.Protocol
		rounds int
	}
	plan := make([]planned, len(d.Peers))
	for i, p := range d.Peers {
		if p.Halted() {
			continue
		}
		proto, rounds, err := build(p)
		if err != nil {
			return fmt.Errorf("deploy: node %d: %w", i, err)
		}
		plan[i] = planned{proto, rounds}
	}
	if mesh {
		if err := d.EstablishLinks(); err != nil {
			return err
		}
	}
	for i, p := range d.Peers {
		if plan[i].proto != nil {
			p.Start(plan[i].proto, plan[i].rounds)
		}
	}
	if drain == nil {
		drain = d.Run
	}
	if err := drain(); err != nil {
		return err
	}
	// d.Peers is read again: a drain may have restarted a crashed node,
	// whose fresh peer copied a live node's pre-close counters.
	for i, p := range d.Peers {
		CloseInstance(p, plan[i].proto)
	}
	return nil
}

// CloseInstance is P6 at one peer, the close both worlds share: once an
// instance is over, a peer that ran a runtime.Mux moves its counter past
// the ids the mux consumed, and then every sequence number and the
// instance counter advance by one. proto is what the peer ran, nil for an
// instance it sat out or missed — a relaunched live node closes each
// epoch it missed, which leaves it where a peer that ran them is.
func CloseInstance(p *runtime.Peer, proto runtime.Protocol) {
	if m, ok := proto.(*runtime.Mux); ok {
		p.AlignInstance(m.NextID())
	}
	p.BumpSeqs()
}

// Broadcast runs one single-initiator ERB instance: every live peer gets
// an engine built from cfg, whose ExpectedInitiators names the initiator,
// and the initiator's broadcasts v. The engines come back indexed by node
// id, nil for a peer that sat out.
func (d *Deployment) Broadcast(cfg erb.Config, v wire.Value, drain func() error) ([]*erb.Engine, error) {
	engines := make([]*erb.Engine, len(d.Peers))
	build := func(p *runtime.Peer) (runtime.Protocol, int, error) {
		eng, err := newBroadcast(p, cfg, v)
		if err != nil {
			return nil, 0, err
		}
		engines[p.ID()] = eng
		return eng, eng.Rounds(), nil
	}
	return engines, d.RunInstance(build, drain)
}

// ERNG is either beacon variant as Epoch hands it back: the protocol a
// node ran and its decision.
type ERNG interface {
	Protocol
	Result() (erng.Result, bool)
}

// Epoch runs one ERNG instance tolerating t faults — Algorithm 3, or with
// optimized Algorithm 6 in auto mode (the paper's 2N/3 fallback cluster
// below the sampled threshold): the catalogue's erng or erng-opt. The
// protocols come back indexed by node id, nil for a peer that sat out.
func (d *Deployment) Epoch(t int, optimized bool, drain func() error) ([]ERNG, error) {
	k := erngKind
	if optimized {
		k = erngOptKind
	}
	protos := make([]ERNG, len(d.Peers))
	return protos, d.runKind(k, t, wire.Value{}, drain, func(id wire.NodeID, p Protocol) { protos[id] = p.(ERNG) })
}

// RunKind runs one instance of a catalogue kind tolerating t faults, node
// 0 broadcasting v in erb. The protocols come back indexed by node id, nil
// for a peer that sat out; k.Decision reads them.
func (d *Deployment) RunKind(k Kind, t int, v wire.Value, drain func() error) ([]Protocol, error) {
	protos := make([]Protocol, len(d.Peers))
	return protos, d.runKind(k, t, v, drain, func(id wire.NodeID, p Protocol) { protos[id] = p })
}

// runKind runs one instance of k, handing each peer's protocol to keep.
// Sampled Algorithm 6 is the one instance that does not open the full
// mesh first: a node there talks to the O(log N) cluster members only.
func (d *Deployment) runKind(k Kind, t int, v wire.Value, drain func() error, keep func(wire.NodeID, Protocol)) error {
	mesh := true
	if k.Name == erngOptKind.Name {
		// An error here is NewOptimized's too, and the build returns it.
		params, _ := erng.ResolveParams(len(d.Peers), t, erng.ModeAuto, 0)
		mesh = params.Mode != erng.ModeSampled
	}
	build := func(p *runtime.Peer) (runtime.Protocol, int, error) {
		proto, err := k.New(p, t, v)
		if err != nil {
			return nil, 0, err
		}
		keep(p.ID(), proto)
		return proto, proto.Rounds(), nil
	}
	return d.runInstance(build, drain, mesh)
}

// Protocol is a protocol the instance catalogue builds: it knows its
// lockstep round count.
type Protocol interface {
	runtime.Protocol
	Rounds() int
}

// Decision is one node's outcome of an instance, whatever its kind.
type Decision struct {
	// Decided is false for a node that finished without a decision.
	Decided bool
	// Accepted tells a value from ⊥ (a beacon's erng.Result.OK).
	Accepted bool
	// Value is the accepted value: the broadcast m, or the common random
	// number. Round is the decision round.
	Value wire.Value
	Round uint32
}

// Kind is one entry of the instance catalogue, named by a scenario
// manifest's mode: what a node runs in one instance, in both worlds. A
// Deployment builds it for each of its peers (RunKind, Epoch), a live
// node for its own.
type Kind struct {
	// Name is the kind's mode name: erb, erng or erng-opt.
	Name string
	// Rounds is the instance's lockstep round count at (n, t), worked out
	// without a peer, or why the kind cannot run at (n, t).
	Rounds func(n, t int) (int, error)
	// New builds the protocol peer p runs in an instance tolerating t
	// faults. In erb node 0 broadcasts v; a beacon ignores v.
	New func(p runtime.Host, t int, v wire.Value) (Protocol, error)
	// Decision reads what a protocol New built decided.
	Decision func(runtime.Protocol) Decision
}

// The catalogue: single-initiator ERB from node 0, Algorithm 3, and
// Algorithm 6 in auto mode. ERB and Algorithm 3 run t+2 rounds from a
// round-1 start (erb.Engine.Rounds; Algorithm 3 embeds one ERB window).
var (
	erbKind = Kind{
		Name:   "erb",
		Rounds: fullRounds,
		New: func(p runtime.Host, t int, v wire.Value) (Protocol, error) {
			return newBroadcast(p, erb.Config{T: t, ExpectedInitiators: firstNode}, v)
		},
		Decision: func(proto runtime.Protocol) Decision {
			res, ok := proto.(*erb.Engine).Result(firstNode[0])
			return Decision{Decided: ok, Accepted: res.Accepted, Value: res.Value, Round: res.Round}
		},
	}
	erngKind = Kind{
		Name:   "erng",
		Rounds: fullRounds,
		New: func(p runtime.Host, t int, _ wire.Value) (Protocol, error) {
			return erng.NewBasic(p, t)
		},
		Decision: beaconDecision,
	}
	erngOptKind = Kind{
		Name: "erng-opt",
		Rounds: func(n, t int) (int, error) {
			params, err := erng.ResolveParams(n, t, erng.ModeAuto, 0)
			return params.Rounds(), err
		},
		New: func(p runtime.Host, t int, _ wire.Value) (Protocol, error) {
			return erng.NewOptimized(p, t, erng.ModeAuto, 0)
		},
		Decision: beaconDecision,
	}
	kinds = []Kind{erbKind, erngKind, erngOptKind}
	// firstNode is the catalogue's erb initiator list, shared read-only by
	// every engine it builds.
	firstNode = []wire.NodeID{0}
)

// LookupKind returns the catalogue's kind of a mode name.
func LookupKind(mode string) (Kind, error) {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		if k.Name == mode {
			return k, nil
		}
		names[i] = k.Name
	}
	return Kind{}, fmt.Errorf("unknown mode %q: the instance catalogue has %s", mode, strings.Join(names, ", "))
}

// fullRounds is the round count of the full-roster kinds, ERB and
// Algorithm 3.
func fullRounds(n, t int) (int, error) {
	if t < 0 || 2*t+1 > n {
		return 0, fmt.Errorf("byzantine bound t=%d violates N >= 2t+1 for N=%d", t, n)
	}
	return t + 2, nil
}

// newBroadcast builds one peer's ERB engine, the initiator's with v as
// its input.
func newBroadcast(p runtime.Host, cfg erb.Config, v wire.Value) (*erb.Engine, error) {
	eng, err := erb.NewEngine(p, cfg)
	if err != nil {
		return nil, err
	}
	if p.ID() == cfg.ExpectedInitiators[0] {
		eng.SetInput(v)
	}
	return eng, nil
}

// beaconDecision reads either beacon variant.
func beaconDecision(proto runtime.Protocol) Decision {
	res, ok := proto.(ERNG).Result()
	return Decision{Decided: ok, Accepted: res.OK, Value: res.Value, Round: res.Round}
}
