package chaos

import (
	"math/rand"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/wire"
)

// generated are the behaviors Generate flips nodes to.
var generated = [...]adversary.Behavior{adversary.OmitAll(), adversary.OmitEven(), adversary.DelayAll(), adversary.CorruptEverything()}

// Generate derives a random fault schedule from a seed for a network of
// n nodes, a fault budget t and a protocol of the given number of
// lockstep rounds. The same (seed, n, t, rounds) always yields the same
// schedule — the seed IS the schedule, which is what makes a failing
// invariant run reproducible from one printed integer.
//
// The generator draws a fault count f ≤ t, picks f victims, and spends
// them on a mix of the attack taxonomy: crashes (with optional
// restarts), behavior flips (full/selective/probabilistic omission A3,
// delay A4, corruption A2) and, sometimes, a partition cutting a subset
// of the victims off for a window of rounds. The schedule never exceeds
// the budget: Validate(n, t) holds by construction.
func Generate(seed int64, n, t, rounds int) *Schedule {
	s := NewSchedule()
	if t <= 0 || rounds < 2 || n < 2 {
		return s
	}
	rng := rand.New(rand.NewSource(seed)) //lint:allow detrand every named seed keeps its recorded schedule until ROADMAP item 13 keys the atoms
	f := rng.Intn(t + 1)
	if f == 0 {
		return s
	}
	perm := rng.Perm(n)
	victims := make([]wire.NodeID, f)
	for i := range victims {
		victims[i] = wire.NodeID(perm[i])
	}

	// Sometimes cut a prefix of the victims off behind a partition for a
	// window of rounds; the rest of the network is the explicit majority
	// group, so Faulty charges exactly the minority.
	cut := 0
	if rng.Intn(3) == 0 {
		cut = 1 + rng.Intn(f)
		from := 1 + rng.Intn(rounds-1)
		to := from + 1 + rng.Intn(rounds-from)
		minority := append([]wire.NodeID(nil), victims[:cut]...)
		inMinority := make([]bool, n)
		for _, id := range minority {
			inMinority[id] = true
		}
		majority := make([]wire.NodeID, 0, n-cut)
		for id := 0; id < n; id++ {
			if !inMinority[id] {
				majority = append(majority, wire.NodeID(id))
			}
		}
		s.Partition([][]wire.NodeID{majority, sortIDs(minority)}, from, to)
	}

	for _, node := range victims[cut:] {
		r := 1 + rng.Intn(rounds)
		// 0 crashes; 1–4 flip to one of the byzantine behaviors.
		if k := rng.Intn(5); k == 0 {
			s.CrashAt(node, r)
			if rng.Intn(2) == 0 {
				s.RestartAfter(node, 1+rng.Intn(3))
			}
		} else {
			s.FlipBehavior(node, r, generated[k-1])
		}
	}
	return s
}
