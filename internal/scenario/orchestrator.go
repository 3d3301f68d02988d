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
)

// EpochWindow is the wall-clock length of one live epoch slot under a
// byzantine bound t — the one definition p2pnode and the runner both
// compute the epoch schedule from. Both live protocols run t+2 lockstep
// rounds (ERB from a round-1 start; basic ERNG embeds an ERB engine with
// the same window: erb.Engine.Rounds, erng.Basic.Rounds); two more
// rounds of slack cover finish callbacks and stragglers, and a round
// lasts 2Δ.
func EpochWindow(t int, delta time.Duration) time.Duration {
	return time.Duration(t+2+2) * 2 * delta
}

// NodeResult is p2pnode's -result-out JSON document: what the node
// decided in each epoch, so the runner can assert cross-process
// invariants without parsing human-readable logs. p2pnode writes this
// type and the runner reads it.
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
	// ID is the node id; Byz marks a byzantine role (chain member).
	ID  int
	Byz bool
	// Crashed marks a node a churn phase killed; Restarted that a new
	// incarnation rejoined.
	Crashed   bool
	Restarted bool
	// Result is the (final incarnation's) parsed result document, nil if
	// the node never wrote one.
	Result *NodeResult
	// TracePaths are the non-empty JSONL traces the node's incarnations
	// left, SIGKILLed ones included (up to their exporter's last drain).
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
	// StreamGaps counts live-stream lines that arrived malformed or out of
	// sequence (Stream runs only): a hole the exporter or the connection
	// left, or a relaunched incarnation restarting its sequence.
	StreamGaps int `json:"stream_gaps,omitempty"`
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
	// OutDir receives traces, results, logs and the merged trace.
	OutDir string
	// StartDelay is the gap between barrier release and round 1; 0
	// picks a default scaled to the fleet size.
	StartDelay time.Duration
	// Stream turns on the live observability plane: every node streams
	// telemetry events (with causal span hops) and metric deltas over its
	// control connection, a resource probe samples its process gauges,
	// and the runner aggregates per-round fleet percentiles live and
	// writes aggregate.jsonl next to the traces.
	Stream bool
	// ProbeInterval overrides the node resource-probe period when
	// streaming (0 = the node's default).
	ProbeInterval time.Duration
	// Profile arms pprof-on-violation: nodes run with -profile-dir at
	// OutDir/profiles, a node that times out at the run deadline gets a
	// PROF request (CPU + heap capture) before the fleet is reaped, and
	// a node that FAILs self-captures a heap snapshot.
	Profile bool
	// Log, when non-nil, receives run narration.
	Log io.Writer
}

// profileGrace is how long the runner waits after requesting profiles
// from wedged nodes before reaping them — the node's CPU capture window
// plus writing slack.
const profileGrace = 3 * time.Second

// Run orchestrates one testcase: spawn the fleet, run the barrier
// handshake, fire churn phases, collect traces and results, assert the
// invariants.
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
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}

	window := EpochWindow(cfg.Params.T, cfg.Params.Delta)
	report := &RunReport{Testcase: cfg.Testcase.Name, N: n, Params: cfg.Params, Window: window}
	began := time.Now() //lint:allow detrand the orchestrator times real OS processes; wall-clock is the quantity being reported

	barrier, err := NewBarrier(n)
	if err != nil {
		return nil, err
	}
	defer barrier.Close()

	var agg *Aggregator
	if cfg.Stream {
		agg = NewAggregator(n, cfg.Log)
		barrier.SetStreamSink(agg.Ingest)
	}
	if cfg.Profile {
		if err := os.MkdirAll(filepath.Join(cfg.OutDir, "profiles"), 0o755); err != nil {
			return nil, err
		}
	}

	fleet := &fleet{
		cfg: cfg, n: n, barrier: barrier,
		outcomes: make([]*NodeOutcome, n),
	}
	for id := 0; id < n; id++ {
		fleet.outcomes[id] = &NodeOutcome{ID: id, Byz: id < cfg.Params.ChainLen}
	}
	defer fleet.killAll()

	for id := 0; id < n; id++ {
		if err := fleet.spawn(id, 0, 0, "127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	logf("scenario %s: %d processes spawned, waiting at barrier", cfg.Testcase.Name, n)

	readyTimeout := 30*time.Second + time.Duration(n)*200*time.Millisecond
	if err := barrier.AwaitReady(readyTimeout); err != nil {
		return nil, err
	}
	startDelay := cfg.StartDelay
	if startDelay == 0 {
		startDelay = 3*time.Second + time.Duration(n)*15*time.Millisecond
	}
	start := time.Now().Add(startDelay) //lint:allow detrand the fleet start epoch is a real wall-clock rendezvous shared with child processes
	if err := barrier.Release(start); err != nil {
		return nil, err
	}
	logf("scenario %s: barrier released, round 1 in %v, window %v", cfg.Testcase.Name, startDelay, window)

	// Churn phases: kill mid-window; a crash-restart relaunches the node
	// immediately with -resume-epoch so it rejoins at the next boundary.
	var churnWG sync.WaitGroup
	for _, phase := range cfg.Testcase.Churn {
		killAt := start.Add(time.Duration(phase.Epoch)*window + window/2)
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			//lint:allow lockstep churn kills real processes at wall-clock epochs; there is no virtual clock spanning the fleet
			time.Sleep(time.Until(killAt)) //lint:allow detrand churn kills real processes at wall-clock epochs; there is no virtual clock spanning the fleet
			fleet.kill(phase.Node)
			fleet.outcomes[phase.Node].Crashed = true
			logf("scenario %s: churn: killed node %d mid-epoch %d", cfg.Testcase.Name, phase.Node, phase.Epoch)
			if phase.Action != "crash-restart" {
				return
			}
			addr, ok := barrier.NodeAddr(phase.Node)
			if !ok {
				logf("scenario %s: churn: node %d has no recorded address", cfg.Testcase.Name, phase.Node)
				return
			}
			fleet.outcomes[phase.Node].Restarted = true
			if err := fleet.spawn(phase.Node, 1, phase.Epoch+1, addr); err != nil {
				logf("scenario %s: churn: relaunch of node %d failed: %v", cfg.Testcase.Name, phase.Node, err)
			} else {
				logf("scenario %s: churn: relaunched node %d for epoch %d", cfg.Testcase.Name, phase.Node, phase.Epoch+1)
			}
		}()
	}

	// Every node is expected to report DONE except pure-crash victims.
	expectDone := make(map[int]bool, n)
	for id := 0; id < n; id++ {
		expectDone[id] = true
	}
	for _, phase := range cfg.Testcase.Churn {
		if phase.Action == "crash" {
			expectDone[phase.Node] = false
		}
	}
	pending := 0
	for id := 0; id < n; id++ {
		if expectDone[id] {
			pending++
		}
	}

	deadline := time.Until(start) + time.Duration(cfg.Params.Epochs)*window + 2*window + 30*time.Second //lint:allow detrand run deadline tracks the real fleet's wall-clock start epoch
	timeout := time.After(deadline)                                                                     //lint:allow lockstep collection deadline for real processes; no virtual clock spans the fleet
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
			if cfg.Profile {
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
					//lint:allow lockstep waits out real child-process profile captures in wall time
					time.Sleep(profileGrace)
				}
			}
			break collect
		}
	}
	churnWG.Wait()
	fleet.killAll()
	fleet.reap()
	report.WallTime = time.Since(began) //lint:allow detrand the orchestrator times real OS processes; wall-clock is the quantity being reported

	for _, out := range fleet.outcomes {
		collectArtifacts(cfg.OutDir, out)
	}
	report.Nodes = fleet.outcomes

	merged, mergeRes := mergeTraces(cfg.OutDir, fleet.outcomes)
	report.MergedPath = merged
	report.Invariants = append(report.Invariants, mergeRes)
	report.Invariants = append(report.Invariants, checkCompletion(fleet.outcomes, expectDone, cfg.Params)...)
	report.Invariants = append(report.Invariants, checkDecisions(fleet.outcomes, cfg.Testcase, cfg.Params)...)
	if agg != nil {
		if aerr := agg.WriteArtifacts(cfg.OutDir); aerr != nil {
			logf("scenario %s: aggregate artifacts: %v", cfg.Testcase.Name, aerr)
		}
		report.StreamGaps = agg.Gaps()
		logf("scenario %s: live stream: %d gaps", cfg.Testcase.Name, report.StreamGaps)
	}

	report.Passed = true
	for _, inv := range report.Invariants {
		if !inv.OK {
			report.Passed = false
		}
	}
	logf("scenario %s: %s in %v", cfg.Testcase.Name, passFail(report.Passed), report.WallTime.Round(time.Millisecond))
	return report, nil
}

// collectArtifacts picks up the result and trace files the node's
// incarnations left in outDir. An incarnation killed before its
// exporter's first drain leaves a zero-byte trace: nothing to merge.
func collectArtifacts(outDir string, out *NodeOutcome) {
	for inc := 0; inc <= 1; inc++ {
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

// spawn launches one node process (incarnation 0 = original, 1 =
// churn relaunch) and leaves it running.
func (f *fleet) spawn(id, incarnation, resumeEpoch int, listen string) error {
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
		"-trace", filepath.Join(f.cfg.OutDir, traceName(id, incarnation)),
		"-result-out", filepath.Join(f.cfg.OutDir, resultName(id, incarnation)),
	}
	if resumeEpoch > 0 {
		args = append(args, "-resume-epoch", strconv.Itoa(resumeEpoch))
	}
	if p.ChainLen > 0 {
		args = append(args, "-chain-len", strconv.Itoa(p.ChainLen))
	}
	if p.Slow != "" && (p.SlowNode < 0 || p.SlowNode == id) {
		args = append(args, "-slow", p.Slow)
	}
	if f.cfg.Stream {
		args = append(args, "-stream", "-spans")
		if f.cfg.ProbeInterval > 0 {
			args = append(args, "-probe-interval", f.cfg.ProbeInterval.String())
		} else {
			args = append(args, "-probe-interval", "250ms")
		}
	}
	if f.cfg.Profile {
		args = append(args, "-profile-dir", filepath.Join(f.cfg.OutDir, "profiles"))
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

// kill SIGKILLs one node process — the crash half of a churn phase.
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
