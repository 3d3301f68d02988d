package runtime

import (
	"errors"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"sgxp2p/internal/channel"
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

// peerObjects is what a peer costs in objects from NewPeer through
// EstablishLinks, key agreement aside: the Peer, its link table, its
// first two trackers' bitset words and its delivery callback, then, at
// the first open link, its table of channel ends and its scratch buffers.
const peerObjects = 6

// TestPeerObjectsIndependentOfN counts the objects of NewPeer and
// EstablishLinks with model links, whose ends hold a seed where a real
// end holds the pair's cipher (a real batch also carves one cipher array
// per eight pairs): the same at N = 16 and N = 64, and no more than
// peerObjects — nothing per link, per batch or per remote id.
func TestPeerObjectsIndependentOfN(t *testing.T) {
	count := func(n int) float64 {
		rng := rand.New(rand.NewSource(int64(n)))
		service, err := enclave.NewAttestationService(rng)
		if err != nil {
			t.Fatal(err)
		}
		program := []byte("runtime/link_test")
		roster := Roster{ServiceKey: service.VerifyKey(), Measurement: xcrypto.Measure(program), PreVerified: true}
		encls := make([]*enclave.Enclave, n)
		for id := range encls {
			if encls[id], err = enclave.Launch(program, wire.NodeID(id), rng, enclave.NewWallClock(), enclave.WithModelKEX()); err != nil {
				t.Fatal(err)
			}
			roster.Quotes = append(roster.Quotes, service.Attest(encls[id]))
		}
		cfg := Config{N: n, T: 1, Delta: time.Second, Sealer: channel.NewModelSealer()}
		tr := &deafTransport{}
		return testing.AllocsPerRun(20, func() {
			p, err := NewPeer(encls[0], tr, roster, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.EstablishLinks(); err != nil || p.Stats().LinksEstablished != uint64(n-1) {
				t.Fatalf("EstablishLinks: %v, %d links", err, p.Stats().LinksEstablished)
			}
		})
	}
	small, large := count(16), count(64)
	if small != large || large > peerObjects {
		t.Fatalf("a peer cost %.0f objects at N = 16 and %.0f at N = 64 through EstablishLinks, want the same and at most %d", small, large, peerObjects)
	}
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
	if first == nil {
		t.Fatal("link(2) not established")
	}
	opened := *first
	if *p.link(2) != opened {
		t.Fatal("link(2) established twice")
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
	if got := p.Stats().LinksEstablished; got != n-1 || *p.link(2) != opened {
		t.Fatalf("%d links after EstablishLinks (want %d); link(2) kept: %v", got, n-1, *p.link(2) == opened)
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

// TestLinkEndSize pins what a peer keeps per roster id: in its link table
// the remote's sequence number, the outbox slot position and the link's
// state, 16 bytes, what the pointer and sequence tables it replaces cost
// before any link opened; and, once a link opens, a channel end (the
// pair's cipher, or the model seed) in the table of ends. Everything a
// peer's links share lives once in the peer, so an opened link costs at
// most 32 bytes per id.
func TestLinkEndSize(t *testing.T) {
	entry, end := unsafe.Sizeof(linkEnd{}), unsafe.Sizeof(channel.End{})
	if entry > 16 || entry+end > 32 {
		t.Fatalf("a link table entry is %d bytes and an end %d, want at most 16 and 32 together", entry, end)
	}
}
