// Beacon example (paper Appendix H): a random beacon service emitting a
// fresh common unbiased value every epoch, with byzantine nodes trying —
// and structurally failing — to bias it, plus a shared key schedule
// derived from the beacon.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"log"

	"sgxp2p"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 9 nodes, 4 byzantine: one delays everything it sends (the
	// look-ahead attack A4), one omits selectively by destination (A3).
	// Neither can read, forge or bias the sealed coins.
	cluster, err := sgxp2p.NewCluster(sgxp2p.Options{
		N: 9, T: 4, Seed: 7,
		Adversary: map[sgxp2p.NodeID]sgxp2p.Behavior{
			0: sgxp2p.DelayAll(),
			1: sgxp2p.OmitTo(0, 2, 4, 6, 8),
		},
	})
	if err != nil {
		return err
	}
	beacon, err := cluster.NewBeacon(sgxp2p.BeaconBasic)
	if err != nil {
		return err
	}

	fmt.Println("random beacon, one ERNG epoch per emission:")
	emissions, err := beacon.RunEpochs(5)
	if err != nil {
		return err
	}
	for _, e := range emissions {
		fmt.Printf("  epoch %d: %s  (%d contributors, virtual t=%v)\n",
			e.Epoch, e.Value, len(e.Contributors), e.At)
	}

	// Every honest node derives the identical key schedule from the
	// beacon trace — no key-distribution protocol needed: epoch i's key is
	// SHA-256 over a domain tag, the schedule's context, i and the beacon
	// value.
	const domain, context = "sgxp2p/keygen/v1/", "group-transport"
	fmt.Println("\nshared keys derived from the beacon trace:")
	for i, e := range emissions {
		msg := []byte(domain + context)
		msg = binary.LittleEndian.AppendUint64(msg, uint64(i))
		key := sha256.Sum256(append(msg, e.Value[:]...))
		fmt.Printf("  epoch %d key: %x\n", i, key[:4])
	}

	fmt.Printf("\nbyzantine delayer halted: %v; selective omitter halted: %v\n",
		cluster.Halted(0), cluster.Halted(1))
	return nil
}
