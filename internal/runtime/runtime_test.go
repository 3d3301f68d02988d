package runtime_test

import (
	"reflect"
	"testing"
	"time"

	"sgxp2p/internal/deploy"
	"sgxp2p/internal/enclave"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/wire"
)

// probe is a minimal protocol recording runtime callbacks; behaviour is
// customized per test through the hook functions.
type probe struct {
	peer   *runtime.Peer
	rounds []uint32
	// msgs holds clones: delivered messages are borrowed (valid only
	// during OnMessage), so a retaining protocol copies what it keeps.
	msgs     []*wire.Message
	finished bool
	onRound  func(rnd uint32)
	onMsg    func(m *wire.Message)
}

func (p *probe) OnRound(rnd uint32) {
	p.rounds = append(p.rounds, rnd)
	if p.onRound != nil {
		p.onRound(rnd)
	}
}

func (p *probe) OnMessage(m *wire.Message) {
	p.msgs = append(p.msgs, m.Clone())
	if p.onMsg != nil {
		p.onMsg(m)
	}
}

func (p *probe) OnFinish() { p.finished = true }

func newDeployment(t *testing.T, n, byz int) *deploy.Deployment {
	t.Helper()
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 1})
	if err != nil {
		t.Fatalf("deploy.New: %v", err)
	}
	return d
}

// startAll attaches a probe to every peer and starts the given number of
// rounds.
func startAll(d *deploy.Deployment, rounds int) []*probe {
	probes := make([]*probe, len(d.Peers))
	for i, p := range d.Peers {
		probes[i] = &probe{peer: p}
		p.Start(probes[i], rounds)
	}
	return probes
}

func TestDeployValidation(t *testing.T) {
	if _, err := deploy.New(deploy.Options{N: 1, T: 0}); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := deploy.New(deploy.Options{N: 5, T: 3}); err == nil {
		t.Error("t beyond N/2 accepted")
	}
	if _, err := deploy.New(deploy.Options{N: 5, T: -1}); err == nil {
		t.Error("negative t accepted")
	}
}

func TestRoundScheduling(t *testing.T) {
	d := newDeployment(t, 3, 1)
	probes := startAll(d, 4)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i, pr := range probes {
		if len(pr.rounds) != 4 {
			t.Fatalf("peer %d saw rounds %v, want 4 rounds", i, pr.rounds)
		}
		for j, r := range pr.rounds {
			if r != uint32(j+1) {
				t.Fatalf("peer %d round sequence %v", i, pr.rounds)
			}
		}
		if !pr.finished {
			t.Fatalf("peer %d never finished", i)
		}
	}
	// 4 rounds of 2*Delta each.
	if got, want := d.Sim.Now(), 4*d.RoundDuration(); got != want {
		t.Fatalf("finished at %v, want %v", got, want)
	}
}

func TestMulticastDeliversWithinRound(t *testing.T) {
	d := newDeployment(t, 5, 2)
	probes := startAll(d, 2)
	sender := probes[0]
	sender.onRound = func(rnd uint32) {
		if rnd != 1 {
			return
		}
		msg := &wire.Message{
			Type: wire.TypeInit, Sender: 0, Initiator: 0,
			Seq: sender.peer.SeqOf(0), Round: 1, HasValue: true,
			Value: wire.Value{0xAB},
		}
		if err := sender.peer.Multicast(nil, msg, 0); err != nil {
			t.Errorf("Multicast: %v", err)
		}
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		if len(probes[i].msgs) != 1 {
			t.Fatalf("peer %d got %d messages, want 1", i, len(probes[i].msgs))
		}
		got := probes[i].msgs[0]
		if got.Type != wire.TypeInit || got.Sender != 0 || got.Value != (wire.Value{0xAB}) {
			t.Fatalf("peer %d got %v", i, got)
		}
	}
	if len(probes[0].msgs) != 0 {
		t.Fatal("sender delivered its own multicast")
	}
}

func TestAckSatisfiedNoHalt(t *testing.T) {
	d := newDeployment(t, 5, 2)
	probes := startAll(d, 2)
	sender := probes[0]
	sender.onRound = func(rnd uint32) {
		if rnd != 1 {
			return
		}
		msg := &wire.Message{
			Type: wire.TypeInit, Sender: 0, Initiator: 0,
			Seq: sender.peer.SeqOf(0), Round: 1, HasValue: true, Value: wire.Value{1},
		}
		// Threshold t=2: four honest receivers will all ACK.
		if err := sender.peer.Multicast(nil, msg, 2); err != nil {
			t.Errorf("Multicast: %v", err)
		}
	}
	for _, pr := range probes[1:] {
		pr := pr
		pr.onMsg = func(m *wire.Message) {
			if err := pr.peer.SendAck(m.Sender, m); err != nil {
				t.Errorf("SendAck: %v", err)
			}
		}
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if probes[0].peer.Halted() {
		t.Fatal("sender halted despite sufficient ACKs")
	}
	st := probes[0].peer.Stats()
	if st.AcksReceived != 4 {
		t.Fatalf("sender received %d acks, want 4", st.AcksReceived)
	}
}

func TestHaltOnMissingAcks(t *testing.T) {
	d := newDeployment(t, 5, 2)
	probes := startAll(d, 3)
	sender := probes[0]
	sender.onRound = func(rnd uint32) {
		if rnd != 1 {
			return
		}
		msg := &wire.Message{
			Type: wire.TypeInit, Sender: 0, Initiator: 0,
			Seq: sender.peer.SeqOf(0), Round: 1, HasValue: true, Value: wire.Value{1},
		}
		if err := sender.peer.Multicast(nil, msg, 2); err != nil {
			t.Errorf("Multicast: %v", err)
		}
	}
	// Nobody ACKs: the sender must churn itself out at the end of round 1
	// (halt-on-divergence, P4).
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if !sender.peer.Halted() {
		t.Fatal("sender did not halt without ACKs")
	}
	if got := len(sender.rounds); got != 1 {
		t.Fatalf("halted sender saw %d rounds, want 1", got)
	}
	if sender.finished {
		t.Fatal("halted sender reported finish")
	}
	if !d.Net.Detached(0) {
		t.Fatal("halted peer not detached from the network")
	}
	if st := sender.peer.Stats(); st.Halts != 1 {
		t.Fatalf("halts = %d, want 1", st.Halts)
	}
}

func TestPartialAcksBelowThresholdHalts(t *testing.T) {
	d := newDeployment(t, 5, 2)
	probes := startAll(d, 2)
	sender := probes[0]
	sender.onRound = func(rnd uint32) {
		if rnd != 1 {
			return
		}
		msg := &wire.Message{
			Type: wire.TypeInit, Sender: 0, Initiator: 0,
			Seq: sender.peer.SeqOf(0), Round: 1, HasValue: true, Value: wire.Value{1},
		}
		if err := sender.peer.Multicast(nil, msg, 2); err != nil {
			t.Errorf("Multicast: %v", err)
		}
	}
	// Only peer 1 ACKs; threshold is 2.
	probes[1].onMsg = func(m *wire.Message) {
		if err := probes[1].peer.SendAck(m.Sender, m); err != nil {
			t.Errorf("SendAck: %v", err)
		}
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if !sender.peer.Halted() {
		t.Fatal("sender with 1 < 2 ACKs did not halt")
	}
}

func TestRoundMismatchDropped(t *testing.T) {
	d := newDeployment(t, 3, 1)
	probes := startAll(d, 3)
	sender := probes[0]
	sender.onRound = func(rnd uint32) {
		if rnd != 1 {
			return
		}
		// Stamp a stale round: receivers are in round 1, message claims 3.
		msg := &wire.Message{
			Type: wire.TypeEcho, Sender: 0, Initiator: 0,
			Seq: sender.peer.SeqOf(0), Round: 3, HasValue: true, Value: wire.Value{1},
		}
		if err := sender.peer.Multicast(nil, msg, 0); err != nil {
			t.Errorf("Multicast: %v", err)
		}
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		if len(probes[i].msgs) != 0 {
			t.Fatalf("peer %d delivered a round-mismatched message", i)
		}
		if st := probes[i].peer.Stats(); st.RoundMismatches != 1 {
			t.Fatalf("peer %d round mismatches = %d, want 1", i, st.RoundMismatches)
		}
	}
}

// TestEarlyMessageBufferedOneRound pins the live-clock skew tolerance: a
// message stamped one round ahead of the receiver is not an omission —
// it parks in the early buffer and is delivered when the round ticks,
// exactly as if it had arrived over the wire a moment later.
func TestEarlyMessageBufferedOneRound(t *testing.T) {
	d := newDeployment(t, 3, 1)
	probes := startAll(d, 3)
	sender := probes[0]
	sender.onRound = func(rnd uint32) {
		if rnd != 1 {
			return
		}
		// Receivers are still in round 1; the message claims round 2 —
		// the shape a marginally faster peer's tick produces over TCP.
		msg := &wire.Message{
			Type: wire.TypeEcho, Sender: 0, Initiator: 0,
			Seq: sender.peer.SeqOf(0), Round: 2, HasValue: true, Value: wire.Value{7},
		}
		if err := sender.peer.Multicast(nil, msg, 0); err != nil {
			t.Errorf("Multicast: %v", err)
		}
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		pr := probes[i]
		if len(pr.msgs) != 1 || pr.msgs[0].Round != 2 || pr.msgs[0].Value != (wire.Value{7}) {
			t.Fatalf("peer %d delivered %v, want the round-2 message once", i, pr.msgs)
		}
		st := pr.peer.Stats()
		if st.EarlyBuffered != 1 {
			t.Fatalf("peer %d early-buffered = %d, want 1", i, st.EarlyBuffered)
		}
		if st.RoundMismatches != 0 {
			t.Fatalf("peer %d counted %d round mismatches, want 0", i, st.RoundMismatches)
		}
	}
}

// TestEarlyMessageSurvivesNextDelivery pins that a parked early message
// owns its Set: deliveries decode into one per-peer scratch message whose
// Set capacity is reused, so the round-1 FINAL that follows the early one
// in the same frame overwrites the very backing array the early one was
// decoded into.
func TestEarlyMessageSurvivesNextDelivery(t *testing.T) {
	d := newDeployment(t, 3, 1)
	probes := startAll(d, 3)
	sender := probes[0]
	early := []wire.SetEntry{{Initiator: 1, Value: wire.Value{0xEA}}}
	later := []wire.SetEntry{{Initiator: 2, Value: wire.Value{0x1A}}}
	sender.onRound = func(rnd uint32) {
		if rnd != 1 {
			return
		}
		for _, m := range []*wire.Message{
			{Type: wire.TypeFinal, Sender: 0, Initiator: 0, Seq: sender.peer.SeqOf(0), Round: 2, Set: early},
			{Type: wire.TypeFinal, Sender: 0, Initiator: 0, Seq: sender.peer.SeqOf(0), Round: 1, Set: later},
		} {
			if err := sender.peer.Multicast(nil, m, 0); err != nil {
				t.Errorf("Multicast: %v", err)
			}
		}
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		msgs := probes[i].msgs
		if len(msgs) != 2 {
			t.Fatalf("peer %d delivered %d messages, want 2", i, len(msgs))
		}
		if got := msgs[0]; got.Round != 1 || !reflect.DeepEqual(got.Set, later) {
			t.Fatalf("peer %d first delivery = round %d set %v, want the round-1 FINAL", i, got.Round, got.Set)
		}
		if got := msgs[1]; got.Round != 2 || !reflect.DeepEqual(got.Set, early) {
			t.Fatalf("peer %d replayed early message = round %d set %v, want set %v", i, got.Round, got.Set, early)
		}
	}
}

// TestEarlyMessageBeyondOneRoundStillDropped pins the buffer's scope: two
// or more rounds ahead is outside any honest clock skew and stays a
// stale-drop omission (the existing TestRoundMismatchDropped covers the
// delayed/replayed direction).
func TestEarlyMessageBeyondOneRoundStillDropped(t *testing.T) {
	d := newDeployment(t, 3, 1)
	probes := startAll(d, 4)
	sender := probes[0]
	sender.onRound = func(rnd uint32) {
		if rnd != 1 {
			return
		}
		msg := &wire.Message{
			Type: wire.TypeEcho, Sender: 0, Initiator: 0,
			Seq: sender.peer.SeqOf(0), Round: 3, HasValue: true, Value: wire.Value{9},
		}
		if err := sender.peer.Multicast(nil, msg, 0); err != nil {
			t.Errorf("Multicast: %v", err)
		}
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		pr := probes[i]
		if len(pr.msgs) != 0 {
			t.Fatalf("peer %d delivered a message stamped two rounds ahead", i)
		}
		if st := pr.peer.Stats(); st.RoundMismatches != 1 || st.EarlyBuffered != 0 {
			t.Fatalf("peer %d stats = %+v, want one stale drop, no buffering", i, st)
		}
	}
}

func TestSeqTableConsistentAfterSetup(t *testing.T) {
	d := newDeployment(t, 4, 1)
	for id := wire.NodeID(0); id < 4; id++ {
		want := d.Peers[0].SeqOf(id)
		for _, p := range d.Peers[1:] {
			if got := p.SeqOf(id); got != want {
				t.Fatalf("seq of %d differs across peers: %d vs %d", id, got, want)
			}
		}
	}
	before := d.Peers[0].SeqOf(2)
	inst := d.Peers[0].Instance()
	d.Peers[0].BumpSeqs()
	if got := d.Peers[0].SeqOf(2); got != before+1 {
		t.Fatalf("BumpSeqs: seq = %d, want %d", got, before+1)
	}
	if got := d.Peers[0].Instance(); got != inst+1 {
		t.Fatalf("BumpSeqs: instance = %d, want %d", got, inst+1)
	}
}

func TestHaltedPeerRefusesOperations(t *testing.T) {
	d := newDeployment(t, 3, 1)
	startAll(d, 1)
	p := d.Peers[0]
	p.HaltSelf()
	p.HaltSelf() // idempotent
	if st := p.Stats(); st.Halts != 1 {
		t.Fatalf("halts = %d, want 1", st.Halts)
	}
	msg := &wire.Message{Type: wire.TypeInit, Sender: 0, Initiator: 0, Round: 1}
	if err := p.Multicast(nil, msg, 0); err != runtime.ErrHalted {
		t.Fatalf("Multicast after halt: %v, want ErrHalted", err)
	}
	if err := p.Send(1, msg); err != runtime.ErrHalted {
		t.Fatalf("Send after halt: %v, want ErrHalted", err)
	}
}

func TestSendUnknownPeer(t *testing.T) {
	d := newDeployment(t, 3, 1)
	msg := &wire.Message{Type: wire.TypeInit, Sender: 0, Initiator: 0, Round: 1}
	if err := d.Peers[0].Send(77, msg); err != runtime.ErrUnknownPeer {
		t.Fatalf("Send to unknown: %v, want ErrUnknownPeer", err)
	}
	if err := d.Peers[0].Send(0, msg); err != runtime.ErrUnknownPeer {
		t.Fatalf("Send to self: %v, want ErrUnknownPeer", err)
	}
}

func TestMulticastSubset(t *testing.T) {
	d := newDeployment(t, 5, 2)
	probes := startAll(d, 1)
	sender := probes[0]
	sender.onRound = func(rnd uint32) {
		msg := &wire.Message{
			Type: wire.TypeChosen, Sender: 0, Initiator: 0,
			Seq: sender.peer.SeqOf(0), Round: 1,
		}
		if err := sender.peer.Multicast([]wire.NodeID{1, 3, 0}, msg, 0); err != nil {
			t.Errorf("Multicast: %v", err)
		}
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	wantCounts := []int{0, 1, 0, 1, 0}
	for i, pr := range probes {
		if len(pr.msgs) != wantCounts[i] {
			t.Fatalf("peer %d got %d messages, want %d", i, len(pr.msgs), wantCounts[i])
		}
	}
}

func TestDigestStableAndSensitive(t *testing.T) {
	m1 := &wire.Message{Type: wire.TypeInit, Sender: 0, Initiator: 0, Seq: 5, Round: 1, HasValue: true, Value: wire.Value{1}}
	m2 := &wire.Message{Type: wire.TypeInit, Sender: 0, Initiator: 0, Seq: 5, Round: 1, HasValue: true, Value: wire.Value{1}}
	m3 := &wire.Message{Type: wire.TypeInit, Sender: 0, Initiator: 0, Seq: 5, Round: 2, HasValue: true, Value: wire.Value{1}}
	d1, err := runtime.Digest(m1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := runtime.Digest(m2)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := runtime.Digest(m3)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("digest not deterministic")
	}
	if d1 == d3 {
		t.Fatal("digest insensitive to round")
	}
}

func TestRealCryptoDeploymentWorks(t *testing.T) {
	d, err := deploy.New(deploy.Options{N: 3, T: 1, Seed: 2, RealCrypto: true})
	if err != nil {
		t.Fatal(err)
	}
	probes := startAll(d, 1)
	probes[0].onRound = func(rnd uint32) {
		msg := &wire.Message{
			Type: wire.TypeInit, Sender: 0, Initiator: 0,
			Seq: probes[0].peer.SeqOf(0), Round: 1, HasValue: true, Value: wire.Value{9},
		}
		if err := probes[0].peer.Multicast(nil, msg, 0); err != nil {
			t.Errorf("Multicast: %v", err)
		}
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		if len(probes[i].msgs) != 1 {
			t.Fatalf("peer %d got %d messages under real crypto", i, len(probes[i].msgs))
		}
	}
}

func TestRoundTickTiming(t *testing.T) {
	d, err := deploy.New(deploy.Options{N: 3, T: 1, Seed: 1, Delta: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var tickTimes []time.Duration
	pr := &probe{peer: d.Peers[0]}
	pr.onRound = func(uint32) { tickTimes = append(tickTimes, d.Sim.Now()) }
	d.Peers[0].Start(pr, 3)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, time.Second, 2 * time.Second}
	if len(tickTimes) != len(want) {
		t.Fatalf("ticks at %v, want %v", tickTimes, want)
	}
	for i := range want {
		if tickTimes[i] != want[i] {
			t.Fatalf("round %d tick at %v, want %v", i+1, tickTimes[i], want[i])
		}
	}
}

func TestNewPeerValidation(t *testing.T) {
	d := newDeployment(t, 3, 1)
	encl := d.Peers[0].Enclave()
	roster := d.Roster
	tr := d.Net.Port(0)

	if _, err := runtime.NewPeer(nil, tr, roster, runtime.Config{N: 3, T: 1, Delta: time.Second}); err == nil {
		t.Error("nil enclave accepted")
	}
	if _, err := runtime.NewPeer(encl, nil, roster, runtime.Config{N: 3, T: 1, Delta: time.Second}); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := runtime.NewPeer(encl, tr, roster, runtime.Config{N: 5, T: 1, Delta: time.Second}); err == nil {
		t.Error("roster size mismatch accepted")
	}
	if _, err := runtime.NewPeer(encl, tr, roster, runtime.Config{N: 3, T: -1, Delta: time.Second}); err == nil {
		t.Error("negative T accepted")
	}
	if _, err := runtime.NewPeer(encl, tr, roster, runtime.Config{N: 3, T: 1}); err == nil {
		t.Error("zero delta accepted")
	}
	// Corrupted quote in the roster must be caught when not pre-verified.
	bad := roster
	bad.PreVerified = false
	bad.Quotes = append([]enclave.Quote(nil), roster.Quotes...)
	bad.Quotes[1].Signature = append([]byte(nil), bad.Quotes[1].Signature...)
	bad.Quotes[1].Signature[0] ^= 1
	if _, err := runtime.NewPeer(encl, tr, bad, runtime.Config{N: 3, T: 1, Delta: time.Second}); err == nil {
		t.Error("corrupted quote accepted")
	}
	// A quote claiming the wrong node id must be caught even pre-verified.
	swapped := roster
	swapped.Quotes = append([]enclave.Quote(nil), roster.Quotes...)
	swapped.Quotes[1], swapped.Quotes[2] = swapped.Quotes[2], swapped.Quotes[1]
	if _, err := runtime.NewPeer(encl, tr, swapped, runtime.Config{N: 3, T: 1, Delta: time.Second}); err == nil {
		t.Error("id-swapped roster accepted")
	}
}

func TestInstallSeqsValidation(t *testing.T) {
	d := newDeployment(t, 3, 1)
	if err := d.Peers[0].InstallSeqs([]uint64{1, 2}); err == nil {
		t.Error("short seq table accepted")
	}
}

func TestAccessors(t *testing.T) {
	d := newDeployment(t, 3, 1)
	p := d.Peers[1]
	if p.N() != 3 || p.T() != 1 || p.Delta() != time.Second || p.ID() != 1 {
		t.Fatalf("accessors: N=%d T=%d Delta=%v ID=%d", p.N(), p.T(), p.Delta(), p.ID())
	}
	if p.Enclave() == nil {
		t.Fatal("nil enclave")
	}
	if p.Round() != 0 {
		t.Fatal("round before start must be 0")
	}
	_ = p.Now()
}

func TestStartInDelaysFirstRound(t *testing.T) {
	d := newDeployment(t, 3, 1)
	var firstTick time.Duration
	pr := &probe{peer: d.Peers[0]}
	pr.onRound = func(rnd uint32) {
		if rnd == 1 {
			firstTick = d.Sim.Now()
		}
	}
	d.Peers[0].StartIn(pr, 2, 3*time.Second)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if firstTick != 3*time.Second {
		t.Fatalf("round 1 at %v, want 3s", firstTick)
	}
	if !pr.finished {
		t.Fatal("protocol did not finish")
	}
}

func TestAddPeerValidation(t *testing.T) {
	d := newDeployment(t, 3, 1)
	p := d.Peers[0]
	// Wrong id: quote for an existing node rather than the next index.
	if err := p.AddPeer(d.Roster, d.Roster.Quotes[1], 9); err == nil {
		t.Error("joiner with non-next id accepted")
	}
	p.HaltSelf()
	if err := p.AddPeer(d.Roster, d.Roster.Quotes[1], 9); err != runtime.ErrHalted {
		t.Errorf("halted AddPeer: %v, want ErrHalted", err)
	}
}

func TestAlignInstance(t *testing.T) {
	d := newDeployment(t, 3, 1)
	d.Peers[0].AlignInstance(7)
	if got := d.Peers[0].Instance(); got != 7 {
		t.Fatalf("instance = %d, want 7", got)
	}
}

func TestRelaunchedEnclaveCannotRejoin(t *testing.T) {
	// Section 3.1 / P6: "If an adversarial node restarts or relaunches its
	// enclave, all the data in the enclave will be removed ... it cannot
	// re-join the same or any on-going execution." A relaunched enclave
	// has fresh key material, so everything it sends fails authentication
	// at peers still holding the original quote.
	d := newDeployment(t, 4, 1)
	probes := startAll(d, 2)

	// Relaunch node 1's enclave (fresh entropy) and attest it anew.
	clock := fakeSimClock{d: d}
	fresh, err := enclave.Launch(deploy.DefaultProgram, 1, nil, clock, enclave.WithModelKEX())
	if err != nil {
		t.Fatal(err)
	}
	rogueRoster := d.Roster
	rogueRoster.Quotes = append([]enclave.Quote(nil), d.Roster.Quotes...)
	rogueRoster.Quotes[1] = d.Service.Attest(fresh)
	roguePort := d.Net.Port(1) // hijacks node 1's network position
	rogue, err := runtime.NewPeer(fresh, roguePort, rogueRoster, runtime.Config{
		N: 4, T: 1, Delta: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rogue.InstallSeqs([]uint64{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	rogueProbe := &probe{peer: rogue}
	rogueProbe.onRound = func(rnd uint32) {
		msg := &wire.Message{
			Type: wire.TypeInit, Sender: 1, Initiator: 1,
			Seq: 0, Round: rnd, HasValue: true, Value: wire.Value{0xBD},
		}
		_ = rogue.Multicast(nil, msg, 0)
	}
	rogue.Start(rogueProbe, 2)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	var authFails uint64
	for _, i := range []int{0, 2, 3} {
		if len(probes[i].msgs) != 0 {
			t.Fatalf("peer %d accepted a message from the relaunched enclave", i)
		}
		authFails += probes[i].peer.Stats().AuthFailures
	}
	if authFails == 0 {
		t.Fatal("relaunched enclave's envelopes produced no auth failures")
	}
}

// fakeSimClock adapts a deployment's simulator for test enclaves.
type fakeSimClock struct{ d *deploy.Deployment }

func (c fakeSimClock) Now() time.Duration { return c.d.Sim.Now() }
