package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/baseline"
	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/parallel"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/stats"
	"sgxp2p/internal/wire"
)

// Sanitize reproduces the Appendix D analysis (Theorems D.1/D.2): with
// byzantine nodes that misbehave with probability p per ERB instance,
// halt-on-divergence churns the byzantine population out geometrically,
// and the mean decision round converges to the honest-case 2.
//
// Unlike the other sweeps, the epochs here feed one stateful deployment
// forward (each epoch's halts persist into the next), so this experiment
// is inherently serial.
func Sanitize(cfg Config) (*Table, error) {
	n, byz := 24, 11
	epochs := 16
	if cfg.Full {
		n, byz = 48, 23
		epochs = 32
	}
	const p = 0.3

	oses := make(map[wire.NodeID]*adversary.OS, byz)
	d, err := deploy.New(deploy.Options{
		N: n, T: byz,
		Delta:     cfg.delta(),
		Bandwidth: 0, // complexity experiment: no link model needed
		Seed:      cfg.Seed,
		Wrap: func(id wire.NodeID, tr runtime.Transport) runtime.Transport {
			if int(id) >= byz {
				return tr
			}
			os := adversary.Wrap(id, tr, adversary.MisbehaveWithProbability(p, cfg.Seed+int64(id)), cfg.Seed+int64(id))
			oses[id] = os
			return os
		},
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "sanitize",
		Title:   fmt.Sprintf("Appendix D: network sanitization (N=%d, t=%d, p=%.2f)", n, byz, p),
		Columns: []string{"epoch", "surviving byz", "predicted (1-p)^r * t", "decision round", "initiator"},
		Notes: []string{
			"surviving byzantine population decays geometrically (Theorem D.1); decision rounds approach 2 as the network sanitizes (Theorem D.2)",
		},
	}

	aliveByz := func() int {
		alive := 0
		for i := 0; i < byz; i++ {
			if !d.Peers[i].Halted() {
				alive++
			}
		}
		return alive
	}

	rotor := 0
	for e := 0; e < epochs; e++ {
		for _, os := range oses {
			os.NewEpoch(uint32(e))
		}
		// The initiator rotates over live nodes (byzantine ones included;
		// an active byzantine initiator wastes the epoch, which is what
		// keeps early-epoch decision rounds above 2).
		var initiator wire.NodeID
		for {
			cand := wire.NodeID(rotor % n)
			rotor++
			if !d.Peers[cand].Halted() {
				initiator = cand
				break
			}
		}
		engines, err := d.Broadcast(erb.Config{T: byz, ExpectedInitiators: []wire.NodeID{initiator}}, wire.Value{byte(e + 1)}, nil)
		if err != nil {
			return nil, err
		}
		var maxRound uint32
		for i := byz; i < n; i++ {
			if engines[i] == nil {
				continue
			}
			if res, ok := engines[i].Result(initiator); ok && res.Round > maxRound {
				maxRound = res.Round
			}
		}
		predicted := math.Pow(1-p, float64(e+1)) * float64(byz)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(e + 1),
			fmt.Sprint(aliveByz()),
			fmt.Sprintf("%.1f", predicted),
			fmt.Sprint(maxRound),
			fmt.Sprint(initiator),
		})
	}
	return t, nil
}

// Bias reproduces the unbiasedness claims of Section 5 (Theorems 5.1 and
// 5.3) as a head-to-head: the signature-based RNG baseline under the
// look-ahead attack A4 is forced to an attacker-chosen target, while the
// ERNG under delaying/omitting byzantine nodes stays statistically
// unbiased.
func Bias(cfg Config) (*Table, error) {
	epochs := 48
	if cfg.Full {
		epochs = 192
	}
	const n, byz = 7, 3

	// Attacked SigRNG: how often does the attacker force its target?
	// Every epoch runs on a private deployment from its own seed, so the
	// epochs sweep in parallel.
	target := wire.Value{0xD7, 0x01}
	sigOutputs, err := parallel.Map(epochs, func(e int) (wire.Value, error) {
		out, rerr := runAttackedSigRNG(cfg, n, byz, cfg.Seed+int64(e)*101, target)
		if rerr != nil {
			return wire.Value{}, fmt.Errorf("bias sigrng epoch %d: %w", e, rerr)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	forced := 0
	for _, out := range sigOutputs {
		if out == target {
			forced++
		}
	}
	sigBias, err := stats.BitBias(sigOutputs)
	if err != nil {
		return nil, err
	}

	// ERNG under byzantine delay + selective omission.
	erngOutputs, err := parallel.Map(epochs, func(e int) (wire.Value, error) {
		out, rerr := runAttackedERNG(cfg, n, byz, cfg.Seed+int64(e)*131)
		if rerr != nil {
			return wire.Value{}, fmt.Errorf("bias erng epoch %d: %w", e, rerr)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	erngBias, err := stats.BitBias(erngOutputs)
	if err != nil {
		return nil, err
	}
	threshold := stats.BitBiasThreshold(epochs, 4)

	t := &Table{
		ID:      "bias",
		Title:   fmt.Sprintf("Unbiasedness under attack (N=%d, t=%d, %d epochs)", n, byz, epochs),
		Columns: []string{"system", "attack", "max bit bias", "threshold(4sd)", "attacker forced output"},
		Notes: []string{
			"SigRNG: signature chains allow committing a coin after seeing everyone else's (A4)",
			"ERNG: blind-box computation (P3) + lockstep execution (P5) reduce the same adversary to omissions",
		},
	}
	t.Rows = append(t.Rows, []string{
		"SigRNG (baseline)", "look-ahead + colluder",
		fmt.Sprintf("%.3f", sigBias),
		fmt.Sprintf("%.3f", threshold),
		fmt.Sprintf("%d/%d epochs", forced, epochs),
	})
	t.Rows = append(t.Rows, []string{
		"ERNG (this work)", "delay + selective omission",
		fmt.Sprintf("%.3f", erngBias),
		fmt.Sprintf("%.3f", threshold),
		"0 (attack reduces to omission)",
	})
	return t, nil
}

// runAttackedSigRNG runs one SigRNG epoch with a look-ahead attacker at
// node 0 and a silent colluder at node 1, returning the honest output.
func runAttackedSigRNG(cfg Config, n, byz int, seed int64, target wire.Value) (wire.Value, error) {
	d, err := baseline.NewDeployment(baseline.DeployOptions{
		N: n, T: byz, Delta: cfg.delta(), Seed: seed, PKI: true,
	})
	if err != nil {
		return wire.Value{}, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0xC0))
	attacker := baseline.NewLookAheadAttacker(d.Peers[0], 1, d.Keys[1], target)
	protos := make([]*baseline.SigRNG, n)
	for i, p := range d.Peers {
		switch i {
		case 0:
			p.Start(attacker, byz+1)
		case 1:
			p.Start(baseline.Silent{}, byz+1)
		default:
			var coin wire.Value
			rng.Read(coin[:])
			protos[i] = baseline.NewSigRNG(p, coin)
			p.Start(protos[i], protos[i].Rounds())
		}
	}
	if err := d.Run(); err != nil {
		return wire.Value{}, err
	}
	res, ok := protos[2].Result()
	if !ok || !res.OK {
		return wire.Value{}, fmt.Errorf("honest SigRNG node undecided")
	}
	return res.Value, nil
}

// runAttackedERNG runs one basic-ERNG epoch with byzantine nodes that
// delay everything (and release late) plus a selective omitter, returning
// the common honest output.
func runAttackedERNG(cfg Config, n, byz int, seed int64) (wire.Value, error) {
	var delayer *adversary.OS
	d, err := deploy.New(deploy.Options{
		N: n, T: byz, Delta: cfg.delta(), Seed: seed,
		Wrap: func(id wire.NodeID, tr runtime.Transport) runtime.Transport {
			switch id {
			case 0:
				delayer = adversary.Wrap(id, tr, adversary.DelayAll(), seed)
				return delayer
			case 1:
				return adversary.Wrap(id, tr, adversary.OmitTo(func(dst wire.NodeID) bool { return dst%2 == 0 }), seed)
			default:
				return tr
			}
		},
	})
	if err != nil {
		return wire.Value{}, err
	}
	// Release the delayed envelopes mid-run: stale rounds, all discarded.
	protos, err := d.Epoch(byz, false, func() error {
		d.Sim.Schedule(5*cfg.delta(), func() {
			if delayer != nil {
				delayer.Release()
			}
		})
		return d.Run()
	})
	if err != nil {
		return wire.Value{}, err
	}
	var out wire.Value
	have := false
	for i := byz; i < n; i++ {
		res, ok := protos[i].Result()
		if !ok || !res.OK {
			return wire.Value{}, fmt.Errorf("honest ERNG node %d undecided", i)
		}
		if have && res.Value != out {
			return wire.Value{}, fmt.Errorf("honest ERNG nodes disagree")
		}
		out = res.Value
		have = true
	}
	return out, nil
}
