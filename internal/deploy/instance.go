package deploy

import (
	"fmt"

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
		if m, ok := plan[i].proto.(*runtime.Mux); ok {
			p.AlignInstance(m.NextID())
		}
		p.BumpSeqs()
	}
	return nil
}

// Broadcast runs one single-initiator ERB instance: every live peer gets
// an engine built from cfg, whose ExpectedInitiators names the initiator,
// and the initiator's broadcasts v. The engines come back indexed by node
// id, nil for a peer that sat out.
func (d *Deployment) Broadcast(cfg erb.Config, v wire.Value, drain func() error) ([]*erb.Engine, error) {
	initiator := cfg.ExpectedInitiators[0]
	engines := make([]*erb.Engine, len(d.Peers))
	build := func(p *runtime.Peer) (runtime.Protocol, int, error) {
		eng, err := erb.NewEngine(p, cfg)
		if err != nil {
			return nil, 0, err
		}
		if p.ID() == initiator {
			eng.SetInput(v)
		}
		engines[p.ID()] = eng
		return eng, eng.Rounds(), nil
	}
	return engines, d.RunInstance(build, drain)
}

// ERNG is either beacon variant as Epoch hands it back: the protocol a
// node ran and its decision.
type ERNG interface {
	runtime.Protocol
	Result() (erng.Result, bool)
}

// Epoch runs one ERNG instance tolerating t faults — Algorithm 3, or with
// optimized Algorithm 6 in auto mode (the paper's 2N/3 fallback cluster
// below the sampled threshold). The protocols come back indexed by node
// id, nil for a peer that sat out.
//
// Sampled Algorithm 6 is the one instance that does not open the full
// mesh first: a node there talks to the O(log N) cluster members only.
func (d *Deployment) Epoch(t int, optimized bool, drain func() error) ([]ERNG, error) {
	mesh := true
	if optimized {
		// An error here is NewOptimized's too, and the build returns it.
		params, _ := erng.ResolveParams(len(d.Peers), t, erng.ModeAuto, 0)
		mesh = params.Mode != erng.ModeSampled
	}
	protos := make([]ERNG, len(d.Peers))
	build := func(p *runtime.Peer) (runtime.Protocol, int, error) {
		if optimized {
			o, err := erng.NewOptimized(p, t, erng.ModeAuto, 0)
			if err != nil {
				return nil, 0, err
			}
			protos[p.ID()] = o
			return o, o.Rounds(), nil
		}
		b, err := erng.NewBasic(p, t)
		if err != nil {
			return nil, 0, err
		}
		protos[p.ID()] = b
		return b, b.Rounds(), nil
	}
	return protos, d.runInstance(build, drain, mesh)
}
