package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"sgxp2p/internal/chaos"
	"sgxp2p/internal/deploy"
)

// EpochRounds is the length of one live epoch slot in rounds, the one
// definition p2pnode and the runner both compute the epoch schedule from:
// the rounds of the catalogue's kind mode at (n, t) (deploy.LookupKind),
// plus two rounds of slack for finish callbacks and stragglers — t+4 for
// erb and erng. A live run's fault schedule counts rounds from round 1 of
// epoch 0, so round r of epoch e is schedule round e·EpochRounds+r. The
// error is the catalogue's: an unknown mode, or one that cannot run at
// (n, t).
func EpochRounds(mode string, n, t int) (int, error) {
	k, err := deploy.LookupKind(mode)
	if err != nil {
		return 0, err
	}
	rounds, err := k.Rounds(n, t)
	return rounds + 2, err
}

// EpochWindow is the wall-clock length of an epoch slot of the given
// rounds: a round lasts 2Δ.
func EpochWindow(rounds int, delta time.Duration) time.Duration {
	return time.Duration(rounds) * 2 * delta
}

// resumeEpoch is the epoch a node relaunched at the start of round r
// rejoins, in epoch slots of the given rounds: the first one that starts
// after r.
func resumeEpoch(r, rounds int) int { return (r-1)/rounds + 1 }

// NodeResult is what a node decided in each epoch, so the runner can
// assert cross-process invariants without parsing human-readable logs:
// p2pnode sends it as its RESULT line, and the barrier writes it into the
// incarnation's result-<id>-<inc>.json.
type NodeResult struct {
	ID     int           `json:"id"`
	Mode   string        `json:"mode"`
	N      int           `json:"n"`
	T      int           `json:"t"`
	Byz    bool          `json:"byz"`
	Epochs []EpochResult `json:"epochs"`
}

// EpochResult is one epoch's outcome at one node.
type EpochResult struct {
	Epoch    int    `json:"epoch"`
	OK       bool   `json:"ok"`
	Accepted bool   `json:"accepted"`
	Value    string `json:"value,omitempty"`
	Round    uint32 `json:"round,omitempty"`
	Note     string `json:"note,omitempty"`
}

// NodeOutcome is everything the runner learned about one node.
type NodeOutcome struct {
	// ID is the node id; Byz marks a node the fault schedule flips.
	ID  int
	Byz bool
	// Crashed marks a node a fault killed; Restarts counts the
	// incarnations relaunched after it.
	Crashed  bool
	Restarts int
	// Result is the (final incarnation's) parsed result document, nil if
	// the node never wrote one.
	Result *NodeResult
	// TracePaths are the non-empty JSONL traces of the node's
	// incarnations, SIGKILLed ones included (up to their exporter's last
	// drain).
	TracePaths []string
	// FailDetail is the FAIL reason the node reported, empty otherwise.
	FailDetail string
}

// InvariantResult is one centrally asserted cross-process invariant.
type InvariantResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// RunReport is the outcome of one orchestrated testcase run.
type RunReport struct {
	Testcase   string            `json:"testcase"`
	N          int               `json:"n"`
	Params     RunParams         `json:"params"`
	Window     time.Duration     `json:"window_ns"`
	WallTime   time.Duration     `json:"wall_time_ns"`
	Nodes      []*NodeOutcome    `json:"-"`
	Invariants []InvariantResult `json:"invariants"`
	MergedPath string            `json:"merged_trace,omitempty"`
	Passed     bool              `json:"passed"`
	// StreamGaps counts control lines that arrived malformed or broke
	// their connection's sequence: a hole the exporter or the connection
	// left. Each incarnation's connection starts its own sequence.
	StreamGaps int `json:"stream_gaps"`
}

// RunConfig configures one orchestrated run.
type RunConfig struct {
	// NodeBin is the p2pnode binary (see BuildNodeBin).
	NodeBin string
	// Testcase and the resolved Params drive the fleet.
	Testcase *Testcase
	Params   RunParams
	// Instances is the process count (0 = the testcase default).
	Instances int
	// OutDir receives traces, results, logs, profiles, aggregate.jsonl
	// and the merged trace.
	OutDir string
	// Log, when non-nil, receives run narration and the live per-round
	// timeline.
	Log io.Writer
}

// profileGrace is how long the runner waits after requesting profiles
// from wedged nodes before reaping them — the node's CPU capture window
// plus writing slack.
const profileGrace = 3 * time.Second

// Run orchestrates one testcase: spawn the fleet, run the barrier
// handshake, fire the fault schedule, collect traces and results, assert
// the invariants. Every node ships its telemetry (span hops included,
// and resource probe gauges) and its result over its control connection,
// and the barrier writes them; the runner aggregates per-round fleet
// percentiles live into aggregate.jsonl. pprof-on-violation is armed in
// every run: a node that times out at the run deadline gets a PROF
// request (CPU + heap capture into OutDir/profiles) before the fleet is
// reaped, and a node that FAILs self-captures a heap snapshot.
func Run(cfg RunConfig) (*RunReport, error) {
	n := cfg.Instances
	if n == 0 {
		n = cfg.Testcase.Instances.Default
	}
	if err := cfg.Testcase.Validate(n, cfg.Params); err != nil {
		return nil, err
	}
	if cfg.NodeBin == "" {
		return nil, fmt.Errorf("scenario: no node binary")
	}
	if err := os.MkdirAll(filepath.Join(cfg.OutDir, "profiles"), 0o755); err != nil {
		return nil, err
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}

	rounds, err := EpochRounds(cfg.Params.Mode, n, cfg.Params.T)
	if err != nil {
		return nil, err
	}
	window := EpochWindow(rounds, cfg.Params.Delta)
	report := &RunReport{Testcase: cfg.Testcase.Name, N: n, Params: cfg.Params, Window: window}
	began := time.Now()

	barrier, err := NewBarrier(n, cfg.OutDir, cfg.Log)
	if err != nil {
		return nil, err
	}
	defer barrier.Close()
	barrier.agg.setSchedule(rounds, cfg.Params.Delta)

	fleet := &fleet{
		cfg: cfg, n: n, barrier: barrier,
		outcomes: make([]*NodeOutcome, n),
	}
	for id := 0; id < n; id++ {
		fleet.outcomes[id] = &NodeOutcome{ID: id, Byz: Byzantine(&cfg.Testcase.Faults, id)}
	}
	defer fleet.killAll()

	for id := 0; id < n; id++ {
		if err := fleet.spawn(id, 0, "127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	logf("scenario %s: %d processes spawned, waiting at barrier", cfg.Testcase.Name, n)

	readyTimeout := 30*time.Second + time.Duration(n)*200*time.Millisecond
	if err := barrier.AwaitReady(readyTimeout); err != nil {
		return nil, err
	}
	startDelay := 3*time.Second + time.Duration(n)*15*time.Millisecond
	start := time.Now().Add(startDelay)
	if err := barrier.Release(start); err != nil {
		return nil, err
	}
	logf("scenario %s: barrier released, round 1 in %v, window %v", cfg.Testcase.Name, startDelay, window)

	// The runner's share of the fault schedule fires on its clock, each
	// event at the start of its round: a crash SIGKILLs the node, a restart
	// relaunches it with -resume-epoch so it rejoins at the next epoch
	// boundary. Flips are the nodes' own (p2pnode -faults).
	faults := cfg.Testcase.Faults.Events()
	faultsDone := make(chan struct{})
	go func() {
		defer close(faultsDone)
		for _, ev := range faults {
			if ev.Kind == chaos.KindFlip {
				continue
			}
			time.Sleep(time.Until(start.Add(time.Duration(ev.Round-1) * 2 * cfg.Params.Delta)))
			id := int(ev.Node)
			if ev.Kind == chaos.KindCrash {
				fleet.kill(id)
				fleet.outcomes[id].Crashed = true
				logf("scenario %s: %s: killed node %d", cfg.Testcase.Name, ev, id)
				continue
			}
			resume := resumeEpoch(ev.Round, rounds)
			addr, _ := barrier.NodeAddr(id)
			fleet.outcomes[id].Restarts++
			if err := fleet.spawn(id, resume, addr); err != nil {
				logf("scenario %s: %s: relaunch of node %d failed: %v", cfg.Testcase.Name, ev, id, err)
			} else {
				logf("scenario %s: %s: relaunched node %d for epoch %d", cfg.Testcase.Name, ev, id, resume)
			}
		}
	}()

	// Every node is expected to report DONE except those a crash leaves down.
	expectDone := make(map[int]bool, n)
	for id := 0; id < n; id++ {
		expectDone[id] = true
	}
	for _, ev := range faults {
		if ev.Kind != chaos.KindFlip {
			expectDone[int(ev.Node)] = ev.Kind == chaos.KindRestart
		}
	}
	pending := 0
	for id := 0; id < n; id++ {
		if expectDone[id] {
			pending++
		}
	}

	deadline := time.Until(start) + time.Duration(cfg.Params.Epochs)*window + 2*window + 30*time.Second
	timeout := time.After(deadline)
	terminal := make(map[int]bool, n)
collect:
	for pending > 0 {
		select {
		case ev := <-barrier.Events():
			switch ev.Kind {
			case "done":
				if expectDone[ev.ID] && !terminal[ev.ID] {
					terminal[ev.ID] = true
					pending--
				}
			case "fail":
				fleet.outcomes[ev.ID].FailDetail = ev.Detail
				if expectDone[ev.ID] && !terminal[ev.ID] {
					terminal[ev.ID] = true
					pending--
				}
				logf("scenario %s: node %d failed: %s", cfg.Testcase.Name, ev.ID, ev.Detail)
			}
		case <-timeout:
			logf("scenario %s: run deadline hit with %d nodes pending", cfg.Testcase.Name, pending)
			// pprof-on-violation: ask every wedged node for a CPU+heap
			// capture and give the window time to run before reaping.
			asked := 0
			for id := 0; id < n; id++ {
				if expectDone[id] && !terminal[id] {
					barrier.SendProf(id)
					asked++
				}
			}
			if asked > 0 {
				logf("scenario %s: requested profiles from %d wedged nodes", cfg.Testcase.Name, asked)
				time.Sleep(profileGrace)
			}
			break collect
		}
	}
	<-faultsDone
	fleet.killAll()
	barrier.Drain()
	fleet.reap()
	report.WallTime = time.Since(began)

	for _, out := range fleet.outcomes {
		collectArtifacts(cfg.OutDir, out)
	}
	report.Nodes = fleet.outcomes

	merged, mergeRes := mergeTraces(cfg.OutDir, fleet.outcomes)
	report.MergedPath = merged
	report.Invariants = append(report.Invariants, mergeRes)
	report.Invariants = append(report.Invariants, checkCompletion(fleet.outcomes, expectDone, cfg.Params)...)
	report.Invariants = append(report.Invariants, checkDecisions(fleet.outcomes, cfg.Testcase, cfg.Params)...)
	if aerr := barrier.agg.WriteArtifacts(cfg.OutDir); aerr != nil {
		logf("scenario %s: aggregate artifacts: %v", cfg.Testcase.Name, aerr)
	}
	gaps, maxLag, maxNode := barrier.agg.totals()
	report.StreamGaps = gaps
	logf("scenario %s: telemetry: %d gaps, ingest lag max %v (node side max %v)", cfg.Testcase.Name, gaps,
		maxLag.Round(time.Millisecond), maxNode.Round(time.Millisecond))

	report.Passed = true
	for _, inv := range report.Invariants {
		if !inv.OK {
			report.Passed = false
		}
	}
	logf("scenario %s: %s in %v", cfg.Testcase.Name, passFail(report.Passed), report.WallTime.Round(time.Millisecond))
	return report, nil
}

// collectArtifacts picks up the result and trace files the barrier wrote
// for the node's incarnations in outDir. An incarnation killed before its
// exporter's first drain leaves a zero-byte trace: nothing to merge.
func collectArtifacts(outDir string, out *NodeOutcome) {
	for inc := 0; inc <= out.Restarts; inc++ {
		if doc, err := readResult(filepath.Join(outDir, resultName(out.ID, inc))); err == nil {
			out.Result = doc
		}
		tracePath := filepath.Join(outDir, traceName(out.ID, inc))
		if st, err := os.Stat(tracePath); err == nil && st.Size() > 0 {
			out.TracePaths = append(out.TracePaths, tracePath)
		}
	}
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// traceName and resultName fix the per-incarnation artifact layout.
func traceName(id, incarnation int) string {
	return fmt.Sprintf("trace-%d-%d.jsonl", id, incarnation)
}
func resultName(id, incarnation int) string {
	return fmt.Sprintf("result-%d-%d.json", id, incarnation)
}

// readResult parses one node result document.
func readResult(path string) (*NodeResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &NodeResult{}
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// fleet manages the node processes of one run.
type fleet struct {
	cfg     RunConfig
	n       int
	barrier *Barrier

	mu       sync.Mutex
	procs    map[int]*exec.Cmd
	logs     []*os.File
	outcomes []*NodeOutcome
}

// spawn launches one node process and leaves it running. Its incarnation
// is the node's restart count: 0 for the original, k after the k-th
// restart.
func (f *fleet) spawn(id, resumeEpoch int, listen string) error {
	incarnation := f.outcomes[id].Restarts
	p := f.cfg.Params
	args := []string{
		"-id", strconv.Itoa(id),
		"-n", strconv.Itoa(f.n),
		"-t", strconv.Itoa(p.T),
		"-delta", p.Delta.String(),
		"-mode", p.Mode,
		"-epochs", strconv.Itoa(p.Epochs),
		"-control", f.barrier.Addr(),
		"-listen", listen,
		"-message", p.Message,
		"-faults", f.cfg.Testcase.Faults.String(),
		"-profile-dir", filepath.Join(f.cfg.OutDir, "profiles"),
	}
	if resumeEpoch > 0 {
		args = append(args, "-resume-epoch", strconv.Itoa(resumeEpoch))
	}
	if p.Slow > 0 && (p.SlowNode < 0 || p.SlowNode == id) {
		args = append(args, "-slow", p.Slow.String())
	}
	cmd := exec.Command(f.cfg.NodeBin, args...)
	logPath := filepath.Join(f.cfg.OutDir, fmt.Sprintf("node-%d-%d.log", id, incarnation))
	logFile, err := os.Create(logPath)
	if err != nil {
		return err
	}
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return fmt.Errorf("spawn node %d: %w", id, err)
	}
	f.mu.Lock()
	if f.procs == nil {
		f.procs = make(map[int]*exec.Cmd, f.n)
	}
	f.procs[id] = cmd
	f.logs = append(f.logs, logFile)
	f.mu.Unlock()
	return nil
}

// kill SIGKILLs one node process — a crash event of the fault schedule.
func (f *fleet) kill(id int) {
	f.mu.Lock()
	cmd := f.procs[id]
	delete(f.procs, id)
	f.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}
}

// killAll terminates every still-running process.
func (f *fleet) killAll() {
	f.mu.Lock()
	ids := make([]int, 0, len(f.procs))
	for id := range f.procs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	cmds := make([]*exec.Cmd, 0, len(ids))
	for _, id := range ids {
		cmds = append(cmds, f.procs[id])
	}
	f.procs = map[int]*exec.Cmd{}
	f.mu.Unlock()
	for _, cmd := range cmds {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	}
}

// reap closes the per-node log files.
func (f *fleet) reap() {
	f.mu.Lock()
	logs := f.logs
	f.logs = nil
	f.mu.Unlock()
	for _, lf := range logs {
		lf.Close()
	}
}

// BuildNodeBin compiles cmd/p2pnode into dir and returns the binary
// path — the auto-build the runner and the e2e tests share.
func BuildNodeBin(dir string) (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	out := filepath.Join(dir, "p2pnode")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/p2pnode")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building p2pnode: %v\n%s", err, msg)
	}
	return out, nil
}

// moduleRoot locates the repository root by walking up to go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
