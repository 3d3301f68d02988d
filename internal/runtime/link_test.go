package runtime

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"sgxp2p/internal/enclave"
	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
)

// deafTransport is a transport nothing ever arrives on or leaves through
// — the tests below call the peer's send and receive paths themselves —
// and the idle protocol they start on it.
type deafTransport struct{ sent int }

func (d *deafTransport) Send(wire.NodeID, []byte)           { d.sent++ }
func (*deafTransport) SetHandler(func(wire.NodeID, []byte)) {}
func (*deafTransport) Detach()                              {}
func (*deafTransport) After(time.Duration, func())          {}
func (*deafTransport) Now() time.Duration                   { return 0 }
func (*deafTransport) OnRound(uint32)                       {}
func (*deafTransport) OnMessage(*wire.Message)              {}
func (*deafTransport) OnFinish()                            {}

func initMsg(from wire.NodeID) *wire.Message {
	return &wire.Message{Type: wire.TypeInit, Sender: from, Initiator: from, Round: 1, HasValue: true, Value: wire.Value{7}}
}

// lonePeer is node 0 of an attested roster of n, on a deaf transport.
func lonePeer(t *testing.T, n int) (*Peer, *deafTransport) {
	t.Helper()
	tr := &deafTransport{}
	p, _ := lonePeerOn(t, n, tr)
	return p, tr
}

// lonePeerOn is node 0 of an attested roster of n on the given transport,
// and the roster's enclaves.
func lonePeerOn(t *testing.T, n int, tr Transport) (*Peer, []*enclave.Enclave) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	service, err := enclave.NewAttestationService(rng)
	if err != nil {
		t.Fatal(err)
	}
	program := []byte("runtime/link_test")
	roster := Roster{ServiceKey: service.VerifyKey(), Measurement: xcrypto.Measure(program)}
	encls := make([]*enclave.Enclave, n)
	for id := range encls {
		if encls[id], err = enclave.Launch(program, wire.NodeID(id), rng, enclave.NewWallClock()); err != nil {
			t.Fatal(err)
		}
		roster.Quotes = append(roster.Quotes, service.Attest(encls[id]))
	}
	p, err := NewPeer(encls[0], tr, roster, Config{N: n, T: 1, Delta: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return p, encls
}

// TestLinkEstablishedAtFirstUse: NewPeer opens no channel; the first use
// of a pair does, once; ids that are not a remote peer never do.
func TestLinkEstablishedAtFirstUse(t *testing.T) {
	const n = 4
	p, tr := lonePeer(t, n)
	if got := p.Stats().LinksEstablished; got != 0 {
		t.Fatalf("%d links after NewPeer, want none", got)
	}
	for _, id := range []wire.NodeID{p.ID(), n, n + 7, wire.NoNode} {
		if p.link(id) != nil {
			t.Errorf("link(%d) is not nil", id)
		}
		if err := p.Send(id, initMsg(0)); !errors.Is(err, ErrUnknownPeer) {
			t.Errorf("Send(%d): %v, want ErrUnknownPeer", id, err)
		}
	}
	if got := p.Stats().LinksEstablished; got != 0 || tr.sent != 0 {
		t.Fatalf("%d links, %d frames from ids outside the roster", got, tr.sent)
	}

	first := p.link(2)
	if first == nil || p.link(2) != first {
		t.Fatal("link(2) not established, or established twice")
	}
	if err := p.Send(2, initMsg(0)); err != nil || tr.sent != 1 {
		t.Fatalf("Send(2): %v, %d frames sent", err, tr.sent)
	}
	if got := p.Stats().LinksEstablished; got != 1 {
		t.Fatalf("%d links after using one pair, want 1", got)
	}
	if err := p.EstablishLinks(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().LinksEstablished; got != n-1 || p.link(2) != first {
		t.Fatalf("%d links after EstablishLinks (want %d); link(2) kept: %v", got, n-1, p.link(2) == first)
	}
}

// TestHaltedPeerNeverDerives: a halted enclave refuses key agreement, so a
// halted peer's sends fail as halted — not as unknown-peer — its receive
// drops, and neither opens a channel.
func TestHaltedPeerNeverDerives(t *testing.T) {
	p, tr := lonePeer(t, 4)
	p.Start(tr, 2)
	p.HaltSelf()
	if err := p.Send(1, initMsg(0)); !errors.Is(err, ErrHalted) {
		t.Fatalf("Send on a halted peer: %v, want ErrHalted", err)
	}
	p.receive(1, make([]byte, 128))
	if p.link(1) != nil {
		t.Fatal("a halted peer established a link")
	}
	if err := p.EstablishLinks(); err != nil {
		t.Fatalf("EstablishLinks on a halted peer: %v", err)
	}
	if st := p.Stats(); st.LinksEstablished != 0 || st.AuthFailures != 0 || tr.sent != 0 {
		t.Fatalf("halted peer: %d links, %d auth failures, %d frames sent", st.LinksEstablished, st.AuthFailures, tr.sent)
	}
}

// TestForgedFrameDerivesOnce: a frame injected under a source the peer
// never talked to costs it that pair's key agreement, once for the life
// of the link; every such frame fails authentication as before.
func TestForgedFrameDerivesOnce(t *testing.T) {
	p, tr := lonePeer(t, 4)
	p.Start(tr, 2)
	forged := make([]byte, 128)
	for i := 1; i <= 2; i++ {
		forged[5] = byte(i)
		p.receive(3, forged)
		if st := p.Stats(); st.AuthFailures != uint64(i) || st.LinksEstablished != 1 {
			t.Fatalf("after forgery %d: %d auth failures, %d links, want %d and 1", i, st.AuthFailures, st.LinksEstablished, i)
		}
	}
	p.receive(9, forged)
	if st := p.Stats(); st.AuthFailures != 2 || st.LinksEstablished != 1 {
		t.Fatalf("a frame from outside the roster: %d auth failures, %d links", st.AuthFailures, st.LinksEstablished)
	}
}
