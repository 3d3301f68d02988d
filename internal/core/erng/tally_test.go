package erng

import (
	"crypto/sha256"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sgxp2p/internal/runtime"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// hashTally is the FINAL tally Algorithm 6 kept before sets were compared
// by content: sets keyed by the SHA-256 of their canonical encoding, a
// map of senders per key, a map for the observed cluster. It stays here
// as the oracle the content tally must agree with.
type hashTally struct {
	cluster map[wire.NodeID]bool
	sets    map[[32]byte][]wire.SetEntry
	senders map[[32]byte]map[wire.NodeID]bool
	decided bool
	result  Result
}

func hashSet(set []wire.SetEntry) [32]byte {
	h := sha256.New()
	var buf [4 + wire.ValueSize]byte
	for _, e := range set {
		buf[0], buf[1], buf[2], buf[3] = byte(e.Initiator), byte(e.Initiator>>8), byte(e.Initiator>>16), byte(e.Initiator>>24)
		copy(buf[4:], e.Value[:])
		h.Write(buf[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func (h *hashTally) final(sender wire.NodeID, set []wire.SetEntry, rnd uint32, at time.Duration) {
	if h.decided || !h.cluster[sender] {
		return
	}
	key := hashSet(set)
	if _, ok := h.sets[key]; !ok {
		h.sets[key] = append([]wire.SetEntry(nil), set...)
		h.senders[key] = map[wire.NodeID]bool{}
	}
	h.senders[key][sender] = true
	if len(h.senders[key]) >= len(h.cluster)/2+1 {
		h.result = foldSet(h.sets[key], rnd, at)
		h.decided = true
	}
}

// tallyHost is the little of a runtime host the FINAL path reads.
type tallyHost struct {
	runtime.Host
	n   int
	now time.Duration
}

func (h *tallyHost) ID() wire.NodeID                           { return 0 }
func (h *tallyHost) N() int                                    { return h.n }
func (h *tallyHost) Instance() uint32                          { return 1 }
func (h *tallyHost) SeqOf(wire.NodeID) uint64                  { return 0 }
func (h *tallyHost) Now() time.Duration                        { return h.now }
func (h *tallyHost) Trace(telemetry.Kind, wire.NodeID, uint64) {}

// TestFinalTallyMatchesHashTally feeds randomized FINAL streams to the
// content tally and to the hash-keyed oracle: clusters of 3 to 40, senders
// whose sets differ from the common one in one initiator or one value
// byte, repeated FINALs from one sender, and senders outside the observed
// cluster. Every message arrives in one reused scratch, as the runtime
// delivers them. Both must reach the same decision, round, value and
// contributors.
func TestFinalTallyMatchesHashTally(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(7))
	decided := 0
	for trial := 0; trial < 400; trial++ {
		host := &tallyHost{n: n}
		o, err := NewOptimized(host, n/3, ModeAuto, 0)
		if err != nil {
			t.Fatal(err)
		}
		oracle := &hashTally{cluster: map[wire.NodeID]bool{}, sets: map[[32]byte][]wire.SetEntry{}, senders: map[[32]byte]map[wire.NodeID]bool{}}
		ids := rng.Perm(n)
		size := 3 + rng.Intn(38)
		cluster := ids[:size]
		for _, id := range cluster {
			o.schosen.Add(wire.NodeID(id))
			oracle.cluster[wire.NodeID(id)] = true
		}
		common := randomSet(rng, cluster)
		variants := [][]wire.SetEntry{common, common, common, oneInitiatorOff(rng, common, n), oneByteOff(rng, common)}

		type final struct {
			sender wire.NodeID
			set    []wire.SetEntry
		}
		var stream []final
		for _, id := range cluster {
			stream = append(stream, final{wire.NodeID(id), variants[rng.Intn(len(variants))]})
			if rng.Intn(4) == 0 { // a repeat, the same set or another
				stream = append(stream, final{wire.NodeID(id), variants[rng.Intn(len(variants))]})
			}
		}
		for _, id := range ids[size : size+1+rng.Intn(3)] {
			stream = append(stream, final{wire.NodeID(id), common})
		}
		rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })

		scratch := &wire.Message{Type: wire.TypeFinal, Instance: 1, Round: uint32(o.Rounds())}
		for i, f := range stream {
			host.now = time.Duration(i) * time.Millisecond
			scratch.Sender, scratch.Initiator = f.sender, f.sender
			scratch.Set = append(scratch.Set[:0], f.set...)
			o.OnMessage(scratch)
			oracle.final(f.sender, f.set, scratch.Round, host.now)
			clear(scratch.Set) // the next delivery overwrites the scratch
		}
		got, ok := o.Result()
		if ok != oracle.decided {
			t.Fatalf("trial %d (cluster %d): decided %v, oracle %v", trial, size, ok, oracle.decided)
		}
		want := oracle.result
		if ok && (got.OK != want.OK || got.Value != want.Value || got.Round != want.Round || got.At != want.At ||
			!slices.Equal(got.Contributors, want.Contributors)) {
			t.Fatalf("trial %d (cluster %d): %+v, oracle %+v", trial, size, got, want)
		}
		if ok {
			decided++
		}
	}
	if decided < 100 || decided > 390 {
		t.Fatalf("%d of 400 trials decided: the streams should both decide and not", decided)
	}
}

// randomSet is a canonical accepted set over some of the cluster's ids.
func randomSet(rng *rand.Rand, cluster []int) []wire.SetEntry {
	var set []wire.SetEntry
	ids := slices.Clone(cluster)
	slices.Sort(ids)
	for _, id := range ids {
		if rng.Intn(3) > 0 {
			e := wire.SetEntry{Initiator: wire.NodeID(id)}
			rng.Read(e.Value[:])
			set = append(set, e)
		}
	}
	return set
}

// oneInitiatorOff is set with one entry's initiator moved to an id the set
// does not hold, kept in ascending order.
func oneInitiatorOff(rng *rand.Rand, set []wire.SetEntry, n int) []wire.SetEntry {
	out := slices.Clone(set)
	for {
		id := wire.NodeID(rng.Intn(n))
		if slices.ContainsFunc(out, func(e wire.SetEntry) bool { return e.Initiator == id }) {
			continue
		}
		if len(out) == 0 {
			return []wire.SetEntry{{Initiator: id}}
		}
		out[rng.Intn(len(out))].Initiator = id
		slices.SortFunc(out, func(a, b wire.SetEntry) int { return int(a.Initiator) - int(b.Initiator) })
		return out
	}
}

// oneByteOff is set with one byte of one entry's value changed.
func oneByteOff(rng *rand.Rand, set []wire.SetEntry) []wire.SetEntry {
	out := slices.Clone(set)
	if len(out) == 0 {
		return []wire.SetEntry{{Value: wire.Value{1}}}
	}
	out[rng.Intn(len(out))].Value[rng.Intn(wire.ValueSize)] ^= byte(1 + rng.Intn(255))
	return out
}
