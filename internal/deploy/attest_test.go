package deploy_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sgxp2p/internal/deploy"
	"sgxp2p/internal/enclave"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/wire"
)

// serialRosterErr is what deploy.New's roster check returned as a loop of
// enclave.VerifyQuote calls: the first failing index's error.
func serialRosterErr(r runtime.Roster) error {
	for id, q := range r.Quotes {
		if err := enclave.VerifyQuote(r.ServiceKey, r.Measurement, q); err != nil {
			return fmt.Errorf("deploy: attestation of node %d: %w", id, err)
		}
	}
	return nil
}

// serialPeerErr is what runtime.NewPeer returned for an unverified roster
// as a loop of enclave.VerifyQuote calls, its own quote skipped.
func serialPeerErr(r runtime.Roster, self int) error {
	for id, q := range r.Quotes {
		if id == self {
			continue
		}
		if err := enclave.VerifyQuote(r.ServiceKey, r.Measurement, q); err != nil {
			return fmt.Errorf("runtime: attestation of peer %d: %w", id, err)
		}
		if q.NodeID != wire.NodeID(id) {
			return fmt.Errorf("runtime: quote %d claims node id %d", id, q.NodeID)
		}
	}
	return nil
}

// TestRosterErrorsMatchSerialLoop puts a tampered signature, and
// separately a genuine quote for another program, at roster index 0, 7,
// 8 and N-1, and both kinds at once at two indexes: New's batched roster
// check and NewPeer's (PreVerified false), from several peers, must
// return the serial loop's error — the same index, ErrBadQuote or
// ErrWrongMeasurement as the loop says.
func TestRosterErrorsMatchSerialLoop(t *testing.T) {
	for _, n := range []int{9, 64} {
		d, err := deploy.New(deploy.Options{N: n, T: 1, Seed: 3, RealCrypto: true})
		if err != nil {
			t.Fatal(err)
		}
		tamper := func(quotes []enclave.Quote, k int) {
			quotes[k].Signature = append([]byte(nil), quotes[k].Signature...)
			quotes[k].Signature[k%64] ^= 1
		}
		otherProgram := func(quotes []enclave.Quote, k int) {
			e, lerr := enclave.Launch([]byte("another program"), wire.NodeID(k), rand.New(rand.NewSource(int64(k))), d.Net.Port(wire.NodeID(k)))
			if lerr != nil {
				t.Fatal(lerr)
			}
			quotes[k] = d.Service.Attest(e)
		}
		type fault struct {
			name  string
			apply func(quotes []enclave.Quote)
			want  error
		}
		var faults []fault
		for _, k := range []int{0, 7, 8, n - 1} {
			faults = append(faults,
				fault{fmt.Sprintf("tampered@%d", k), func(q []enclave.Quote) { tamper(q, k) }, enclave.ErrBadQuote},
				fault{fmt.Sprintf("program@%d", k), func(q []enclave.Quote) { otherProgram(q, k) }, enclave.ErrWrongMeasurement})
		}
		faults = append(faults,
			fault{"program@7+tampered@8", func(q []enclave.Quote) { otherProgram(q, 7); tamper(q, 8) }, enclave.ErrWrongMeasurement},
			fault{"tampered@1+program@n-1", func(q []enclave.Quote) { tamper(q, 1); otherProgram(q, n-1) }, enclave.ErrBadQuote})
		for _, f := range faults {
			roster := d.Roster
			roster.Quotes = append([]enclave.Quote(nil), d.Roster.Quotes...)
			roster.PreVerified = false
			f.apply(roster.Quotes)
			want := serialRosterErr(roster)
			got := deploy.VerifyRoster(roster)
			if !errors.Is(want, f.want) || fmt.Sprint(got) != fmt.Sprint(want) || !errors.Is(got, f.want) {
				t.Fatalf("N=%d %s: roster check says %v, the serial loop %v", n, f.name, got, want)
			}
			for _, self := range []int{0, 1, 7, 8, n - 1} {
				want := serialPeerErr(roster, self)
				_, got := runtime.NewPeer(d.Encls[self], d.Net.Port(wire.NodeID(self)), roster,
					runtime.Config{N: n, T: 1, Delta: time.Second})
				if fmt.Sprint(got) != fmt.Sprint(want) || (want != nil && !errors.Is(got, errors.Unwrap(want))) {
					t.Fatalf("N=%d %s, peer %d: NewPeer says %v, the serial loop %v", n, f.name, self, got, want)
				}
			}
		}
	}
}
