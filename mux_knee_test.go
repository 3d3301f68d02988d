package sgxp2p_test

import (
	"testing"
	"time"

	"sgxp2p"
)

// muxBatchSeconds runs one BroadcastMany batch of the given size and
// returns its wall-clock duration plus a correctness spot-check.
func muxBatchSeconds(t *testing.T, c *sgxp2p.Cluster, count int) time.Duration {
	t.Helper()
	reqs := make([]sgxp2p.BroadcastRequest, count)
	for j := range reqs {
		reqs[j] = sgxp2p.BroadcastRequest{
			Initiator: sgxp2p.NodeID(j % c.N()),
			Value:     sgxp2p.ValueFromString("knee payload"),
		}
	}
	began := time.Now()
	results, err := c.BroadcastMany(reqs, sgxp2p.MuxOptions{MaxInFlight: 8})
	elapsed := time.Since(began)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != count {
		t.Fatalf("got %d results, want %d", len(results), count)
	}
	for j, res := range results {
		if len(res) != c.N() {
			t.Fatalf("request %d decided at %d nodes, want %d", j, len(res), c.N())
		}
		for id, r := range res {
			if !r.Accepted {
				t.Fatalf("request %d rejected at node %d: %+v", j, id, r)
			}
		}
	}
	return elapsed
}

// TestBroadcastManyAdmissionKnee pins the multiplexed runtime's scaling
// past its admission knee: per-broadcast wall-clock cost must stay
// roughly flat between a 100-instance batch and a 1000-instance batch.
// The mux admits MaxInFlight instances at a time and retires whole
// windows as they finish, so a tenfold-longer queue amortizes over
// tenfold more work — historically the i100→i1000 per-instance ratio is
// ~0.95 (EXPERIMENTS.md, mux section). The 0.4 floor leaves generous
// room for scheduler noise on loaded hosts while still catching a regression
// that makes admission cost grow with queue depth (the failure mode the
// knee guards: per-instance work scaling with backlog length, which
// turns the flat line into a cliff).
func TestBroadcastManyAdmissionKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 1000-broadcast batch")
	}
	c, err := sgxp2p.NewCluster(sgxp2p.Options{N: 16, T: 7, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up batch: first-use allocations (link buffers, tracker maps)
	// land here instead of skewing the measured i100 run.
	muxBatchSeconds(t, c, 32)

	// Min of two runs for the short batch: it is the noisier of the two
	// measurements (seconds-scale runs self-average, 100-instance runs
	// feel every scheduler hiccup).
	t100 := muxBatchSeconds(t, c, 100)
	if again := muxBatchSeconds(t, c, 100); again < t100 {
		t100 = again
	}
	t1000 := muxBatchSeconds(t, c, 1000)

	perInst100 := t100.Seconds() / 100
	perInst1000 := t1000.Seconds() / 1000
	ratio := perInst100 / perInst1000
	t.Logf("per-instance: i100 %.3fms, i1000 %.3fms, throughput ratio %.2f",
		perInst100*1e3, perInst1000*1e3, ratio)
	if ratio < 0.4 {
		t.Fatalf("admission knee regressed: i1000 per-instance cost %.3fms is %.1fx the i100 cost %.3fms (ratio %.2f < 0.4)",
			perInst1000*1e3, perInst1000/perInst100, perInst100*1e3, ratio)
	}
}
