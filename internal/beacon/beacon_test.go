package beacon_test

import (
	"testing"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/beacon"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/wire"
)

func TestBeaconBasicEpochs(t *testing.T) {
	d, err := deploy.New(deploy.Options{N: 5, T: 2, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	b, err := beacon.New(d, beacon.Config{T: 2})
	if err != nil {
		t.Fatal(err)
	}
	emissions, err := b.RunEpochs(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(emissions) != 3 {
		t.Fatalf("got %d emissions, want 3", len(emissions))
	}
	seen := make(map[wire.Value]bool)
	for i, e := range emissions {
		if !e.OK {
			t.Fatalf("emission %d is bottom", i)
		}
		if len(e.Contributors) != 5 {
			t.Fatalf("emission %d contributors %v", i, e.Contributors)
		}
		if seen[e.Value] {
			t.Fatalf("emission %d repeats an earlier value", i)
		}
		seen[e.Value] = true
	}
	if len(b.History()) != 3 {
		t.Fatalf("history length %d", len(b.History()))
	}
	// Epochs advance.
	if emissions[0].Epoch == emissions[1].Epoch {
		t.Fatal("epoch numbers did not advance")
	}
}

func TestBeaconSourceInterface(t *testing.T) {
	d, err := deploy.New(deploy.Options{N: 5, T: 2, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	b, err := beacon.New(d, beacon.Config{T: 2})
	if err != nil {
		t.Fatal(err)
	}
	var src beacon.Source = b
	v1, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if v1 == v2 {
		t.Fatal("consecutive beacon values identical")
	}
}

func TestBeaconOptimizedMode(t *testing.T) {
	d, err := deploy.New(deploy.Options{N: 30, T: 10, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	b, err := beacon.New(d, beacon.Config{T: 10, Mode: beacon.ModeOptimized})
	if err != nil {
		t.Fatal(err)
	}
	e, err := b.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if !e.OK {
		t.Fatal("optimized epoch is bottom")
	}
	if len(e.Contributors) == 0 || len(e.Contributors) > 30 {
		t.Fatalf("contributors %v", e.Contributors)
	}
}

func TestBeaconSurvivesByzantineOmitters(t *testing.T) {
	const n, byz = 7, 3
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 54})
	if err != nil {
		t.Fatal(err)
	}
	for id := wire.NodeID(0); id < byz; id++ {
		d.OS(id).Set(adversary.OmitAll())
	}
	b, err := beacon.New(d, beacon.Config{T: byz})
	if err != nil {
		t.Fatal(err)
	}
	// Byzantine nodes halt during epoch 1; later epochs run on survivors.
	for i := 0; i < 2; i++ {
		e, err := b.RunEpoch()
		if err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		if !e.OK {
			t.Fatalf("epoch %d bottom", i)
		}
		for _, c := range e.Contributors {
			if int(c) < byz {
				t.Fatalf("epoch %d includes byzantine contributor %d", i, c)
			}
		}
	}
}

func TestBeaconValidation(t *testing.T) {
	if _, err := beacon.New(nil, beacon.Config{}); err == nil {
		t.Error("nil deployment accepted")
	}
	d, err := deploy.New(deploy.Options{N: 5, T: 2, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := beacon.New(d, beacon.Config{T: 3}); err == nil {
		t.Error("t beyond N/2 accepted")
	}
	if _, err := beacon.New(d, beacon.Config{T: -1}); err == nil {
		t.Error("negative t accepted")
	}
}

func TestBeaconChainVerifies(t *testing.T) {
	d, err := deploy.New(deploy.Options{N: 5, T: 2, Seed: 56})
	if err != nil {
		t.Fatal(err)
	}
	b, err := beacon.New(d, beacon.Config{T: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunEpochs(4); err != nil {
		t.Fatal(err)
	}
	history := b.History()
	if idx := beacon.VerifyChain(history); idx != -1 {
		t.Fatalf("honest chain broken at %d", idx)
	}
	// Tamper with an intermediate value: verification must localize it.
	history[1].Value[0] ^= 1
	if idx := beacon.VerifyChain(history); idx != 1 {
		t.Fatalf("tampered value detected at %d, want 1", idx)
	}
	history[1].Value[0] ^= 1
	// Drop an emission: the successor's Prev no longer matches.
	cut := append(append([]beacon.Emission(nil), history[:2]...), history[3])
	if idx := beacon.VerifyChain(cut); idx != 2 {
		t.Fatalf("spliced chain detected at %d, want 2", idx)
	}
	if idx := beacon.VerifyChain(nil); idx != -1 {
		t.Fatalf("empty chain should verify, got %d", idx)
	}
}
