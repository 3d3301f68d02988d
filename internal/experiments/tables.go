package experiments

import (
	"fmt"
	"math/rand"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/baseline"
	"sgxp2p/internal/parallel"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/stats"
	"sgxp2p/internal/wire"
)

// baselineRun is the measured outcome of one baseline protocol run.
type baselineRun struct {
	Rounds   uint32
	Messages uint64
	Bytes    uint64
	Accepted bool
}

// runBroadcastBaseline executes one broadcast of the named baseline
// protocol ("rbsig", "rbearly", "strawman") with initiator 0 and an
// optional omission chain of the given length.
func runBroadcastBaseline(cfg Config, kind string, n, chainLen int) (baselineRun, error) {
	byz := (n - 1) / 2
	var wrap func(id wire.NodeID, tr runtime.Transport) runtime.Transport
	if chainLen > 0 {
		chain := make([]wire.NodeID, chainLen)
		for i := range chain {
			chain[i] = wire.NodeID(i)
		}
		release := wire.NodeID(chainLen)
		wrap = func(id wire.NodeID, tr runtime.Transport) runtime.Transport {
			if int(id) >= chainLen {
				return tr
			}
			return adversary.Wrap(id, tr, adversary.Chain(chain, int(id), release), cfg.Seed+int64(id))
		}
	}
	d, err := baseline.NewDeployment(baseline.DeployOptions{
		N: n, T: byz,
		Delta: cfg.delta(),
		Seed:  cfg.Seed,
		PKI:   kind == "rbsig",
		Wrap:  wrap,
	})
	if err != nil {
		return baselineRun{}, err
	}
	input := wire.Value{0xB5}

	type resultFn func() (bool, uint32, bool)
	results := make([]resultFn, n)
	d.Net.ResetTraffic()
	for i, p := range d.Peers {
		switch kind {
		case "rbsig":
			pr := baseline.NewRBsig(p, 0)
			if i == 0 {
				pr.SetInput(input)
			}
			results[i] = func() (bool, uint32, bool) {
				res, ok := pr.Result()
				return res.Accepted, res.Round, ok
			}
			p.Start(pr, pr.Rounds())
		case "rbearly":
			pr := baseline.NewRBearly(p, 0)
			if i == 0 {
				pr.SetInput(input)
			}
			results[i] = func() (bool, uint32, bool) {
				res, ok := pr.Result()
				return res.Accepted, res.Round, ok
			}
			p.Start(pr, pr.Rounds())
		case "strawman":
			pr := baseline.NewStrawman(p, 0)
			if i == 0 {
				pr.SetInput(input)
			}
			results[i] = func() (bool, uint32, bool) {
				res, ok := pr.Result()
				return res.Accepted, res.Round, ok
			}
			p.Start(pr, pr.Rounds())
		default:
			return baselineRun{}, fmt.Errorf("unknown baseline %q", kind)
		}
	}
	if err := d.Run(); err != nil {
		return baselineRun{}, err
	}
	out := baselineRun{Accepted: true}
	for i := chainLen; i < n; i++ {
		accepted, round, ok := results[i]()
		if !ok || !accepted {
			out.Accepted = false
		}
		if ok && round > out.Rounds {
			out.Rounds = round // latest decision, bottom included
		}
	}
	tr := d.Net.Traffic()
	out.Messages = tr.Messages
	out.Bytes = tr.Bytes
	return out, nil
}

// fitExponent fits message counts against sizes and returns the power-law
// exponent as a display string.
func fitExponent(sizes []int, counts []uint64) string {
	xs := make([]float64, len(sizes))
	ys := make([]float64, len(counts))
	for i := range sizes {
		xs[i] = float64(sizes[i])
		ys[i] = float64(counts[i])
	}
	k, _, err := stats.FitPowerLaw(xs, ys)
	if err != nil {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", k)
}

// Tab1 reproduces Table 1: round and communication complexity of reliable
// broadcast. Implemented protocols are measured (honest and worst-case
// chain); the remaining rows of the paper's table are printed as the
// analytical claims they are.
func Tab1(cfg Config) (*Table, error) {
	sizes := []int{8, 16, 32, 64}
	if cfg.Full {
		sizes = []int{8, 16, 32, 64, 128}
	}
	probe := sizes[len(sizes)-1]
	t := &Table{
		ID:    "tab1",
		Title: "Table 1: reliable broadcast — rounds and communication",
		Columns: []string{
			"protocol", "model", "rounds honest", "rounds chain f=N/4",
			fmt.Sprintf("msgs N=%d", probe), "msg growth exp", "paper claim",
		},
		Notes: []string{
			"growth exponent fitted over N in " + fmt.Sprint(sizes),
			"analytical-only comparators from the paper: PT/PR (omission, O(N^3)), PSL (byz, O(exp N)), BGP/BG/GM/AD15 (byz, O(poly N)), AD14 (byz, O(N^4))",
		},
	}

	type proto struct {
		name, model, claim string
		honest             func(n int) (baselineRun, error)
		chain              func(n, f int) (baselineRun, error)
	}
	erbHonest := func(n int) (baselineRun, error) {
		run, err := runERB(cfg, n, 0)
		if err != nil {
			return baselineRun{}, err
		}
		return baselineRun{Rounds: run.MaxRound, Messages: run.Messages, Bytes: run.Bytes, Accepted: run.Accepted}, nil
	}
	erbChain := func(n, f int) (baselineRun, error) {
		run, err := runERB(cfg, n, f)
		if err != nil {
			return baselineRun{}, err
		}
		return baselineRun{Rounds: run.MaxRound, Messages: run.Messages, Bytes: run.Bytes, Accepted: run.Accepted}, nil
	}
	mk := func(kind string) (func(int) (baselineRun, error), func(int, int) (baselineRun, error)) {
		return func(n int) (baselineRun, error) { return runBroadcastBaseline(cfg, kind, n, 0) },
			func(n, f int) (baselineRun, error) { return runBroadcastBaseline(cfg, kind, n, f) }
	}
	rbsigH, rbsigC := mk("rbsig")
	rbearlyH, rbearlyC := mk("rbearly")
	strawH, strawC := mk("strawman")
	protos := []proto{
		{name: "ERB (this work)", model: "byz + SGX", claim: "min{f+2,t+2} rounds, O(N^2)", honest: erbHonest, chain: erbChain},
		{name: "RBsig (Alg. 4)", model: "byzantine + PKI", claim: "t+1 rounds, O(N^3)", honest: rbsigH, chain: rbsigC},
		{name: "RBearly (Alg. 5)", model: "general omission", claim: "min{f+2,t+1} rounds, O(N^3)", honest: rbearlyH, chain: rbearlyC},
		{name: "Strawman (Alg. 1)", model: "byzantine (broken)", claim: "t+1 rounds, no agreement", honest: strawH, chain: strawC},
	}

	// Flatten to (len(sizes)+1) independent jobs per protocol — the honest
	// sweep plus the chain run — so the expensive chain runs overlap with
	// the honest sweeps of other protocols.
	perProto := len(sizes) + 1
	runs, err := parallel.Map(len(protos)*perProto, func(j int) (baselineRun, error) {
		p := protos[j/perProto]
		k := j % perProto
		if k < len(sizes) {
			run, rerr := p.honest(sizes[k])
			if rerr != nil {
				return baselineRun{}, fmt.Errorf("tab1 %s N=%d: %w", p.name, sizes[k], rerr)
			}
			return run, nil
		}
		run, rerr := p.chain(probe, probe/4)
		if rerr != nil {
			return baselineRun{}, fmt.Errorf("tab1 %s chain: %w", p.name, rerr)
		}
		return run, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range protos {
		var counts []uint64
		var honestRounds uint32
		var probeMsgs uint64
		for k, n := range sizes {
			run := runs[pi*perProto+k]
			counts = append(counts, run.Messages)
			if n == probe {
				honestRounds = run.Rounds
				probeMsgs = run.Messages
			}
		}
		chainRun := runs[pi*perProto+len(sizes)]
		t.Rows = append(t.Rows, []string{
			p.name, p.model,
			fmt.Sprint(honestRounds),
			fmt.Sprint(chainRun.Rounds),
			fmt.Sprint(probeMsgs),
			fitExponent(sizes, counts),
			p.claim,
		})
	}
	return t, nil
}

// runSigRNG executes one SigRNG epoch on a baseline deployment.
func runSigRNG(cfg Config, n int) (baselineRun, error) {
	byz := (n - 1) / 2
	d, err := baseline.NewDeployment(baseline.DeployOptions{
		N: n, T: byz, Delta: cfg.delta(), Seed: cfg.Seed, PKI: true,
	})
	if err != nil {
		return baselineRun{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 77))
	protos := make([]*baseline.SigRNG, n)
	d.Net.ResetTraffic()
	for i, p := range d.Peers {
		var coin wire.Value
		rng.Read(coin[:])
		protos[i] = baseline.NewSigRNG(p, coin)
		p.Start(protos[i], protos[i].Rounds())
	}
	if err := d.Run(); err != nil {
		return baselineRun{}, err
	}
	out := baselineRun{Accepted: true}
	for _, pr := range protos {
		res, ok := pr.Result()
		if !ok || !res.OK {
			out.Accepted = false
		}
		if res.Round > out.Rounds {
			out.Rounds = res.Round
		}
	}
	tr := d.Net.Traffic()
	out.Messages = tr.Messages
	out.Bytes = tr.Bytes
	return out, nil
}

// Tab2 reproduces Table 2: round and communication complexity of the
// random number generation protocols.
func Tab2(cfg Config) (*Table, error) {
	sizes := []int{8, 16, 32}
	if cfg.Full {
		sizes = []int{8, 16, 32, 64}
	}
	probe := sizes[len(sizes)-1]
	t := &Table{
		ID:    "tab2",
		Title: "Table 2: distributed RNG — rounds and communication",
		Columns: []string{
			"protocol", "network", fmt.Sprintf("msgs N=%d", probe),
			fmt.Sprintf("MB N=%d", probe), "msg growth exp", "paper claim",
		},
		Notes: []string{
			"growth exponent fitted over N in " + fmt.Sprint(sizes),
			"analytical-only comparators from the paper: AS (6t+1, O(N^3)), AD14 (2t+1, O(N^4))",
		},
	}
	type rng struct {
		name, network, claim string
		run                  func(n int) (baselineRun, error)
	}
	basicRun := func(n int) (baselineRun, error) {
		r, err := runBasicERNG(cfg, n)
		if err != nil {
			return baselineRun{}, err
		}
		return baselineRun{Messages: r.Messages, Bytes: r.Bytes, Accepted: r.OK}, nil
	}
	optRun := func(n int) (baselineRun, error) {
		r, err := runOptERNG(cfg, n)
		if err != nil {
			return baselineRun{}, err
		}
		return baselineRun{Messages: r.Messages, Bytes: r.Bytes, Accepted: r.OK}, nil
	}
	sigRun := func(n int) (baselineRun, error) { return runSigRNG(cfg, n) }
	rngs := []rng{
		{name: "Basic ERNG (Alg. 3)", network: "2t+1", claim: "O(N) rounds, O(N^3)", run: basicRun},
		{name: "Optimized ERNG (Alg. 6)", network: "3t+1", claim: "O(log N) rounds, O(N log N)", run: optRun},
		{name: "SigRNG (RBsig-based)", network: "2t+1 + PKI", claim: "t+1 rounds, O(N^4), biasable", run: sigRun},
	}
	runs, err := parallel.Map(len(rngs)*len(sizes), func(j int) (baselineRun, error) {
		r := rngs[j/len(sizes)]
		n := sizes[j%len(sizes)]
		run, rerr := r.run(n)
		if rerr != nil {
			return baselineRun{}, fmt.Errorf("tab2 %s N=%d: %w", r.name, n, rerr)
		}
		return run, nil
	})
	if err != nil {
		return nil, err
	}
	for ri, r := range rngs {
		var counts []uint64
		var probeRun baselineRun
		for k, n := range sizes {
			run := runs[ri*len(sizes)+k]
			counts = append(counts, run.Messages)
			if n == probe {
				probeRun = run
			}
		}
		t.Rows = append(t.Rows, []string{
			r.name, r.network,
			fmt.Sprint(probeRun.Messages),
			fmtMB(float64(probeRun.Bytes)),
			fitExponent(sizes, counts),
			r.claim,
		})
	}
	return t, nil
}
