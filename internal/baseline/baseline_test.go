package baseline_test

import (
	"math/rand"
	"testing"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/baseline"
	"sgxp2p/internal/wire"
)

func val(b byte) wire.Value {
	var v wire.Value
	v[0] = b
	return v
}

func randomValue(rng *rand.Rand) wire.Value {
	var v wire.Value
	rng.Read(v[:])
	return v
}

func newDeployment(t *testing.T, n, byz int, seed int64, pki bool) *baseline.Deployment {
	t.Helper()
	d, err := baseline.NewDeployment(baseline.DeployOptions{N: n, T: byz, Seed: seed, PKI: pki})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	return d
}

func TestNewPeerValidation(t *testing.T) {
	d := newDeployment(t, 3, 1, 1, false)
	if _, err := baseline.NewPeer(0, 3, 1, 0, d.Net.Port(0), baseline.Roster{}, nil); err == nil {
		t.Error("zero delta accepted")
	}
	if _, err := baseline.NewPeer(0, 1, 0, 1, d.Net.Port(0), baseline.Roster{}, nil); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := baseline.NewPeer(0, 3, 1, 1, nil, baseline.Roster{}, nil); err == nil {
		t.Error("nil transport accepted")
	}
}

func TestStrawmanHonestAllAccept(t *testing.T) {
	const n, byz = 7, 3
	d := newDeployment(t, n, byz, 2, false)
	protos := make([]*baseline.Strawman, n)
	for i, p := range d.Peers {
		protos[i] = baseline.NewStrawman(p, 0)
		if i == 0 {
			protos[i].SetInput(val(0x11))
		}
		p.Start(protos[i], protos[i].Rounds())
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i, pr := range protos {
		res, ok := pr.Result()
		if !ok || !res.Accepted || res.Value != val(0x11) {
			t.Fatalf("peer %d: %+v ok=%v", i, res, ok)
		}
	}
}

func TestStrawmanEquivocationBreaksAgreement(t *testing.T) {
	// The known hole the paper's Section 2.3 describes: a byzantine
	// initiator equivocates and honest strawman nodes accept different
	// values. This test asserts the VULNERABILITY (the reason the
	// strawman is insufficient), not a desirable property.
	const n, byz = 8, 3
	d := newDeployment(t, n, byz, 3, false)
	attacker := baseline.NewEquivocator(d.Peers[0], val(0xA1), val(0xB2))
	d.Peers[0].Start(attacker, byz+1)
	protos := make([]*baseline.Strawman, n)
	for i := 1; i < n; i++ {
		protos[i] = baseline.NewStrawman(d.Peers[i], 0)
		d.Peers[i].Start(protos[i], protos[i].Rounds())
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	values := make(map[wire.Value]int)
	for i := 1; i < n; i++ {
		res, ok := protos[i].Result()
		if ok && res.Accepted {
			values[res.Value]++
		}
	}
	if len(values) < 2 {
		t.Fatalf("equivocation did not split the strawman (accepted values: %v)", values)
	}
}

func runRBsigGroupless(t *testing.T, d *baseline.Deployment, initiator wire.NodeID, input *wire.Value, skip map[wire.NodeID]baseline.Proto) []*baseline.RBsig {
	t.Helper()
	protos := make([]*baseline.RBsig, len(d.Peers))
	for i, p := range d.Peers {
		if alt, ok := skip[wire.NodeID(i)]; ok {
			p.Start(alt, d.Opts.T+1)
			continue
		}
		protos[i] = baseline.NewRBsig(p, initiator)
		if wire.NodeID(i) == initiator && input != nil {
			protos[i].SetInput(*input)
		}
		p.Start(protos[i], protos[i].Rounds())
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	return protos
}

func TestRBsigHonestAllAccept(t *testing.T) {
	const n, byz = 7, 3
	d := newDeployment(t, n, byz, 4, true)
	input := val(0x22)
	protos := runRBsigGroupless(t, d, 0, &input, nil)
	for i, pr := range protos {
		res, ok := pr.Result()
		if !ok || !res.Accepted || res.Value != val(0x22) {
			t.Fatalf("peer %d: %+v ok=%v", i, res, ok)
		}
	}
}

func TestRBsigSilentInitiatorBottom(t *testing.T) {
	const n, byz = 5, 2
	d := newDeployment(t, n, byz, 5, true)
	protos := runRBsigGroupless(t, d, 0, nil, nil)
	for i, pr := range protos {
		res, ok := pr.Result()
		if !ok || res.Accepted {
			t.Fatalf("peer %d: %+v ok=%v, want bottom", i, res, ok)
		}
	}
}

// rbsigEquivocator signs two different values and sends each to half the
// network — the classic attack that signatures DEFEAT: honest nodes see
// both signed values and jointly output bottom (agreement preserved).
type rbsigEquivocator struct {
	peer *baseline.Peer
	a, b wire.Value
}

func (e *rbsigEquivocator) OnRound(rnd uint32) {
	if rnd != 1 {
		return
	}
	for id := 0; id < e.peer.N(); id++ {
		dst := wire.NodeID(id)
		if dst == e.peer.ID() {
			continue
		}
		v := e.a
		if id%2 == 1 {
			v = e.b
		}
		sig, err := e.peer.Sign(baseline.ChainBody(e.peer.ID(), v, nil))
		if err != nil {
			return
		}
		msg := &wire.Message{
			Type:      wire.TypeSigRelay,
			Sender:    e.peer.ID(),
			Initiator: e.peer.ID(),
			Round:     rnd,
			HasValue:  true,
			Value:     v,
			Sigs:      []wire.SigEntry{{Signer: e.peer.ID(), Signature: sig}},
		}
		_ = e.peer.Send(dst, msg)
	}
}

func (e *rbsigEquivocator) OnMessage(wire.NodeID, *wire.Message) {}
func (e *rbsigEquivocator) OnFinish()                            {}

func TestRBsigEquivocationYieldsCommonBottom(t *testing.T) {
	const n, byz = 7, 3
	d := newDeployment(t, n, byz, 6, true)
	attacker := &rbsigEquivocator{peer: d.Peers[0], a: val(0xA1), b: val(0xB2)}
	protos := runRBsigGroupless(t, d, 0, nil, map[wire.NodeID]baseline.Proto{0: attacker})
	for i := 1; i < n; i++ {
		res, ok := protos[i].Result()
		if !ok {
			t.Fatalf("peer %d undecided", i)
		}
		if res.Accepted {
			t.Fatalf("peer %d accepted %v despite equivocation; signature chains should force bottom", i, res.Value)
		}
	}
}

// rbsigForger tries to inject a value with a forged initiator signature.
type rbsigForger struct {
	peer   *baseline.Peer
	victim wire.NodeID
}

func (f *rbsigForger) OnRound(rnd uint32) {
	if rnd != 1 {
		return
	}
	// Sign with own key but claim the victim initiated: chain[0].Signer =
	// victim, signature by us -> must fail verification everywhere.
	v := val(0xEE)
	sig, err := f.peer.Sign(baseline.ChainBody(f.victim, v, nil))
	if err != nil {
		return
	}
	msg := &wire.Message{
		Type:      wire.TypeSigRelay,
		Sender:    f.peer.ID(),
		Initiator: f.victim,
		Round:     rnd,
		HasValue:  true,
		Value:     v,
		Sigs:      []wire.SigEntry{{Signer: f.victim, Signature: sig}},
	}
	_ = f.peer.Multicast(nil, msg)
}

func (f *rbsigForger) OnMessage(wire.NodeID, *wire.Message) {}
func (f *rbsigForger) OnFinish()                            {}

func TestRBsigForgeryRejected(t *testing.T) {
	const n, byz = 5, 2
	d := newDeployment(t, n, byz, 7, true)
	attacker := &rbsigForger{peer: d.Peers[1], victim: 0}
	protos := runRBsigGroupless(t, d, 0, nil, map[wire.NodeID]baseline.Proto{1: attacker})
	for i := 0; i < n; i++ {
		if i == 1 {
			continue
		}
		res, ok := protos[i].Result()
		if !ok {
			t.Fatalf("peer %d undecided", i)
		}
		if res.Accepted {
			t.Fatalf("peer %d accepted a forged broadcast", i)
		}
	}
}

func TestRBearlyHonestEarlyStop(t *testing.T) {
	const n, byz = 7, 3
	d := newDeployment(t, n, byz, 8, false)
	protos := make([]*baseline.RBearly, n)
	for i, p := range d.Peers {
		protos[i] = baseline.NewRBearly(p, 0)
		if i == 0 {
			protos[i].SetInput(val(0x33))
		}
		p.Start(protos[i], protos[i].Rounds())
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i, pr := range protos {
		res, ok := pr.Result()
		if !ok || !res.Accepted || res.Value != val(0x33) {
			t.Fatalf("peer %d: %+v ok=%v", i, res, ok)
		}
		if res.Round > 2 {
			t.Fatalf("peer %d decided in round %d, want <= 2 (early stopping)", i, res.Round)
		}
	}
}

func TestRBearlySilentInitiatorEarlyBottom(t *testing.T) {
	const n, byz = 7, 3
	d := newDeployment(t, n, byz, 9, false)
	protos := make([]*baseline.RBearly, n)
	for i, p := range d.Peers {
		protos[i] = baseline.NewRBearly(p, 0)
		p.Start(protos[i], protos[i].Rounds())
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		res, ok := protos[i].Result()
		if !ok || res.Accepted {
			t.Fatalf("peer %d: %+v ok=%v, want bottom", i, res, ok)
		}
		if res.Round > 3 {
			t.Fatalf("peer %d decided bottom in round %d, want early", i, res.Round)
		}
	}
}

func TestSigRNGHonestAgreement(t *testing.T) {
	const n, byz = 5, 2
	d := newDeployment(t, n, byz, 10, true)
	rng := rand.New(rand.NewSource(11))
	coins := make([]wire.Value, n)
	var want wire.Value
	for i := range coins {
		coins[i] = randomValue(rng)
		want = want.XOR(coins[i])
	}
	protos := make([]*baseline.SigRNG, n)
	for i, p := range d.Peers {
		protos[i] = baseline.NewSigRNG(p, coins[i])
		p.Start(protos[i], protos[i].Rounds())
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i, pr := range protos {
		res, ok := pr.Result()
		if !ok || !res.OK {
			t.Fatalf("peer %d: %+v ok=%v", i, res, ok)
		}
		if res.Value != want {
			t.Fatalf("peer %d output %v, want XOR of all coins %v", i, res.Value, want)
		}
		if len(res.Contributors) != n {
			t.Fatalf("peer %d contributors %v", i, res.Contributors)
		}
	}
}

func TestSigRNGLookAheadBias(t *testing.T) {
	// The headline negative result for signature-based RNG: a byzantine
	// node with one colluder forces the output to an arbitrary target.
	const n, byz = 7, 3
	d := newDeployment(t, n, byz, 12, true)
	target := val(0xD7)
	attackerID, colluderID := wire.NodeID(0), wire.NodeID(1)
	attacker := baseline.NewLookAheadAttacker(d.Peers[0], colluderID, d.Keys[colluderID], target)
	rng := rand.New(rand.NewSource(13))
	protos := make([]*baseline.SigRNG, n)
	for i, p := range d.Peers {
		switch wire.NodeID(i) {
		case attackerID:
			p.Start(attacker, byz+1)
		case colluderID:
			p.Start(baseline.Silent{}, byz+1)
		default:
			protos[i] = baseline.NewSigRNG(p, randomValue(rng))
			p.Start(protos[i], protos[i].Rounds())
		}
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < n; i++ {
		res, ok := protos[i].Result()
		if !ok || !res.OK {
			t.Fatalf("peer %d: %+v ok=%v", i, res, ok)
		}
		if res.Value != target {
			t.Fatalf("peer %d output %v, attacker wanted %v — look-ahead bias failed?", i, res.Value, target)
		}
	}
}

func TestRBearlyTrafficCubicUnderOmissionChain(t *testing.T) {
	// Table 1's separation: with f ~ N/4 omission-faulty nodes forming a
	// delay chain, RBearly keeps every undecided node announcing for ~f
	// rounds => ~f*N^2 ~ N^3 messages, while ERB stays ~2N^2 in the same
	// scenario thanks to halt-on-divergence (Appendix B.2's argument).
	// Doubling N should multiply RBearly's message count by ~8.
	sizes := []int{8, 16, 32}
	msgs := make([]float64, len(sizes))
	for k, n := range sizes {
		byz := (n - 1) / 2
		f := n / 4
		chain := make([]wire.NodeID, f)
		for i := range chain {
			chain[i] = wire.NodeID(i)
		}
		d, err := baseline.NewDeployment(baseline.DeployOptions{N: n, T: byz, Seed: 14})
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range chain {
			d.OS(id).Set(adversary.Chain(chain, i, wire.NodeID(f)))
		}
		protos := make([]*baseline.RBearly, n)
		d.Net.ResetTraffic()
		for i, p := range d.Peers {
			protos[i] = baseline.NewRBearly(p, 0)
			if i == 0 {
				protos[i].SetInput(val(0x77))
			}
			p.Start(protos[i], protos[i].Rounds())
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		msgs[k] = float64(d.Net.Traffic().Messages)
	}
	r1 := msgs[1] / msgs[0]
	r2 := msgs[2] / msgs[1]
	if r1 < 5.5 || r2 < 5.5 {
		t.Fatalf("RBearly message growth ratios %.1f, %.1f too low for cubic growth (%v)", r1, r2, msgs)
	}
}

func TestRBsigTrafficAboveQuadraticBytes(t *testing.T) {
	// Even in the honest case, RBsig's signature chains make its byte
	// volume grow faster than plain quadratic (the worst case with
	// byzantine-injected values is O(N^3)).
	sizes := []int{8, 16, 32}
	bytes := make([]float64, len(sizes))
	for k, n := range sizes {
		byz := (n - 1) / 2
		d := newDeployment(t, n, byz, 14, true)
		input := val(0x77)
		d.Net.ResetTraffic()
		runRBsigGroupless(t, d, 0, &input, nil)
		bytes[k] = float64(d.Net.Traffic().Bytes)
	}
	r1 := bytes[1] / bytes[0]
	r2 := bytes[2] / bytes[1]
	if r1 < 4.1 || r2 < 4.1 {
		t.Fatalf("RBsig byte growth ratios %.1f, %.1f not above quadratic (%v)", r1, r2, bytes)
	}
}
