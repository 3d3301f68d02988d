package erb_test

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/wire"
)

// randomBehavior draws one of the byzantine OS strategies for a network
// of n nodes.
func randomBehavior(rng *rand.Rand, seed int64, n int) adversary.Behavior {
	switch rng.Intn(5) {
	case 0:
		return adversary.OmitAll()
	case 1:
		mask := rng.Int63()
		var dsts []wire.NodeID
		for dst := 0; dst < n; dst++ {
			if (mask>>(dst%16))&1 == 1 {
				dsts = append(dsts, wire.NodeID(dst))
			}
		}
		return adversary.OmitTo(dsts...)
	case 2:
		return adversary.OmitProbabilistic(rng.Float64(), seed)
	case 3:
		return adversary.CorruptEverything()
	default:
		return adversary.DelayAll()
	}
}

// scenario runs one randomized byzantine scenario and checks the three
// reliable-broadcast properties among honest nodes:
//
//	agreement — all honest decide the same outcome,
//	integrity — an accepted value is exactly the initiator's input,
//	validity  — with an honest initiator, all honest nodes accept.
func scenario(t *testing.T, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(8)     // 5..12 nodes
	byz := rng.Intn(n / 2)   // 0..floor((n-1)/2) byzantine
	tBound := (n - 1) / 2    // protocol provisioned for the max
	initiator := rng.Intn(n) // may be byzantine
	input := wire.Value{byte(seed), byte(seed >> 8), 0xE7}

	byzSet := make(map[wire.NodeID]adversary.Behavior, byz)
	perm := rng.Perm(n)
	for i := 0; i < byz; i++ {
		byzSet[wire.NodeID(perm[i])] = randomBehavior(rng, seed+int64(i), n)
	}
	d, err := deploy.New(deploy.Options{N: n, T: tBound, Seed: seed})
	if err != nil {
		t.Fatalf("seed %d: deploy: %v", seed, err)
	}
	for id := range d.Peers {
		if b, ok := byzSet[wire.NodeID(id)]; ok {
			d.OS(wire.NodeID(id)).Set(b)
		}
	}
	engines := make([]*erb.Engine, n)
	for i, p := range d.Peers {
		eng, err := erb.NewEngine(p, erb.Config{T: tBound, ExpectedInitiators: []wire.NodeID{wire.NodeID(initiator)}})
		if err != nil {
			t.Fatalf("seed %d: engine: %v", seed, err)
		}
		engines[i] = eng
	}
	engines[initiator].SetInput(input)
	for i, p := range d.Peers {
		p.Start(engines[i], engines[i].Rounds())
	}
	if err := d.Run(); err != nil {
		t.Fatalf("seed %d: run: %v", seed, err)
	}

	var accepted, bottom int
	for i := 0; i < n; i++ {
		if _, isByz := byzSet[wire.NodeID(i)]; isByz || d.Peers[i].Halted() {
			continue
		}
		res, ok := engines[i].Result(wire.NodeID(initiator))
		if !ok {
			t.Fatalf("seed %d: honest node %d undecided", seed, i)
		}
		if res.Accepted {
			// Integrity: only the genuine input can ever be accepted.
			if res.Value != input {
				t.Fatalf("seed %d: honest node %d accepted forged value %v", seed, i, res.Value)
			}
			accepted++
		} else {
			bottom++
		}
	}
	// Agreement.
	if accepted > 0 && bottom > 0 {
		t.Fatalf("seed %d: agreement violated (%d accepted, %d bottom)", seed, accepted, bottom)
	}
	// Validity: honest initiators always succeed.
	if _, isByz := byzSet[wire.NodeID(initiator)]; !isByz && accepted == 0 {
		t.Fatalf("seed %d: honest initiator's broadcast not accepted", seed)
	}
	return true
}

// TestQuickReliableBroadcastProperties fuzzes randomized byzantine
// scenarios: sizes, fault sets, strategies and initiators all drawn from
// the seed. This is the end-to-end check of result R1 — whatever mix of
// forging, corruption, delays and omissions the OS layer attempts, the
// system behaves exactly like a general-omission execution.
func TestQuickReliableBroadcastProperties(t *testing.T) {
	f := func(seed int64) bool { return scenario(t, seed) }
	cfgQ := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfgQ.MaxCount = 10
	}
	if err := quick.Check(f, cfgQ); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDelayedReleaseNeverForges arms a delaying adversary, releases
// its stale envelopes at a random later time, and checks nothing but the
// genuine value is ever delivered or accepted.
func TestQuickDelayedReleaseNeverForges(t *testing.T) {
	f := func(seed int64, releaseAtRound uint8) bool {
		const n, byz = 7, 3
		d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: seed})
		if err != nil {
			return false
		}
		d.OS(1).Set(adversary.DelayAll())
		input := wire.Value{0xAB, byte(seed)}
		engines := make([]*erb.Engine, n)
		for i, p := range d.Peers {
			eng, err := erb.NewEngine(p, erb.Config{T: byz, ExpectedInitiators: []wire.NodeID{0}})
			if err != nil {
				return false
			}
			engines[i] = eng
		}
		engines[0].SetInput(input)
		for i, p := range d.Peers {
			p.Start(engines[i], engines[i].Rounds())
		}
		release := d.RoundDuration() * time.Duration(releaseAtRound%6)
		d.Sim.Schedule(release+d.RoundDuration()/3, d.OS(1).Release)
		if err := d.Run(); err != nil {
			return false
		}
		for i := 2; i < n; i++ {
			res, ok := engines[i].Result(0)
			if !ok || !res.Accepted || res.Value != input {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
