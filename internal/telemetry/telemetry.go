// Package telemetry is the reproduction's zero-dependency observability
// layer: a metrics registry (counters, gauges, fixed-bucket histograms) and
// a round-structured event tracer.
//
// The paper's evaluation is built on measured per-round latency, message
// counts and churn events; this package makes the same quantities visible
// inside the reproduction without perturbing it. Three properties are
// load-bearing:
//
//   - Disabled means free. Every handle type treats a nil receiver as a
//     no-op (a nil *Tracer records nothing, a nil *Counter counts nothing),
//     and instrumented packages keep their hot paths behind a single
//     pointer check, so a deployment built without telemetry pays no
//     allocations and no measurable time.
//
//   - Logical time only. The tracer has no clock of its own: it stamps
//     events with an injected clock function (vclock.Sim.Now in simulation,
//     the transport origin clock on live TCP). Deterministic packages thus
//     stay wall-clock free (the detrand analyzer checks this), and two runs
//     of the same chaos seed export byte-identical JSONL traces.
//
//   - One store. The event stream is the only copy of an event: an
//     invariant violation renders the offending node's timeline (Flight)
//     out of it, an exporter drains it with a Since cursor and Releases
//     what it shipped, and the hash folds as events arrive.
//
// Event volume is bounded by the run, not the network: events are recorded
// per protocol action (round ticks, multicasts, deliveries, decisions,
// churn), so a trace grows linearly with simulated work and is safe to keep
// in memory for experiment-scale runs; a live node's exporter releases
// what it has written, so there memory is bounded by the drain interval.
package telemetry

import (
	"time"

	"sgxp2p/internal/wire"
)

// Kind enumerates trace event kinds. The string names (see String) are the
// stable wire vocabulary of the JSONL export; appending new kinds is safe,
// renumbering existing ones is not.
type Kind uint8

// Trace event kinds, grouped by the layer that records them.
const (
	// KindRound marks the start of a lockstep round at a node (recorded by
	// the runtime tick, before the protocol's OnRound runs).
	KindRound Kind = iota + 1
	// KindDeliver is an authenticated protocol message handed to the
	// protocol layer; Peer is the sender, Arg the wire message type.
	KindDeliver
	// KindAckSent and KindAckRecv are the P4 acknowledgment traffic.
	KindAckSent
	KindAckRecv
	// KindAuthFail is an envelope rejected by the channel (forgery,
	// corruption, wrong program) — an omission per Theorem A.2.
	KindAuthFail
	// KindStale is an authenticated message dropped by the lockstep round
	// check (delayed or replayed).
	KindStale
	// KindSendFail is a multicast leg that degraded to an omission.
	KindSendFail
	// KindHalt is halt-on-divergence (P4): the node churned itself out.
	KindHalt

	// KindInit and KindEcho are ERB multicasts (Algorithm 2); Peer is the
	// instance's initiator, Arg a 64-bit fingerprint of the value.
	KindInit
	KindEcho
	// KindAccept is an ERB accept decision; KindBottom a bottom decision.
	KindAccept
	KindBottom
	// KindChosen marks a node joining the ERNG representative cluster;
	// KindCluster freezes its local cluster view (Arg = view size).
	KindChosen
	KindCluster
	// KindDecide is a beacon decision (Arg = number of contributors).
	KindDecide

	// Chaos-engine events. Node is wire.NoNode for network-wide events.
	KindCrash
	KindRestart
	KindRestartFail
	KindFlip
	KindPartition
	KindHeal
	// KindDetach and KindReattach are the transport-level halves of churn.
	KindDetach
	KindReattach

	// KindBatchFlush is one coalesced outbox flush: a sealed batch frame
	// leaving for one peer (Peer is the destination, Arg the number of
	// messages the frame carries).
	KindBatchFlush

	// KindEarly is an authenticated message stamped one round ahead of
	// the receiver's lockstep clock — live processes tick on wall clocks
	// that skew by fractions of a round — buffered and delivered when
	// the receiver's round catches up (Arg is the message's round).
	KindEarly

	// Causal-span hops (recorded only when Options.Spans is set). Each
	// carries the sealed frame's tag in Span and the hop's elapsed time in
	// Arg (nanoseconds; 0 under the simulator's virtual clock, where the
	// hop is instantaneous). At is the hop's end instant, so the
	// seal→transit→open→deliver→handle decomposition falls out of the
	// merged stream (internal/obsplane reconstructs it).
	//
	// KindSeal is the sender sealing one envelope for Peer (the
	// destination); KindOpen is the receiver authenticating it (Peer the
	// sender); KindHandled is the protocol's OnMessage returning for one
	// delivered message (Peer the sender).
	KindSeal
	KindOpen
	KindHandled
)

// kindNames is the stable Kind → JSONL name table.
var kindNames = [...]string{
	KindRound:       "round",
	KindDeliver:     "deliver",
	KindAckSent:     "ack-sent",
	KindAckRecv:     "ack-recv",
	KindAuthFail:    "auth-fail",
	KindStale:       "stale",
	KindSendFail:    "send-fail",
	KindHalt:        "halt",
	KindInit:        "init",
	KindEcho:        "echo",
	KindAccept:      "accept",
	KindBottom:      "bottom",
	KindChosen:      "chosen",
	KindCluster:     "cluster",
	KindDecide:      "decide",
	KindCrash:       "crash",
	KindRestart:     "restart",
	KindRestartFail: "restart-fail",
	KindFlip:        "flip",
	KindPartition:   "partition",
	KindHeal:        "heal",
	KindDetach:      "detach",
	KindReattach:    "reattach",
	KindBatchFlush:  "batch-flush",
	KindEarly:       "early",
	KindSeal:        "seal",
	KindOpen:        "open",
	KindHandled:     "handled",
}

// String returns the stable event-kind name used in exports.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind resolves an exported kind name back to its Kind.
func ParseKind(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name != "" && name == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one trace record. Events are keyed by (Node, Round, Kind): the
// node that acted, the lockstep round it was in, and what happened. At is
// logical time (virtual in simulation), Peer the counterparty (wire.NoNode
// when there is none), Arg a kind-specific 64-bit payload and Note a short
// kind-specific annotation.
type Event struct {
	At    time.Duration
	Node  wire.NodeID
	Round uint32
	Kind  Kind
	Peer  wire.NodeID
	Arg   uint64
	Note  string
	// Instance attributes the event to the protocol instance it belongs
	// to: the wire.Message instance id for deliveries and ACK traffic, the
	// hosting instance for protocol milestones. 0 is "instance-less" —
	// runtime-wide events (round ticks, halts, batch flushes) and every
	// event of a pre-multiplexing single-instance run, so legacy traces
	// export unchanged (the JSONL field is omitempty).
	Instance uint32
	// Span is the causal-span id the event belongs to: the sealed frame's
	// channel.FrameTag, identical at sender and receiver, so the hops of
	// one envelope's life join up across process traces without spending
	// a single wire byte. 0 means span-less (every event of a run without
	// Options.Spans; the JSONL field is omitempty).
	Span uint64
	// Seq is the event's 1-based position in its tracer's stream, stamped
	// at record time. It makes a re-sent copy of an event deduplicable
	// (MergeEvents drops exact duplicates with equal Seq) and lets a
	// stream consumer detect gaps. 0 means a hand-built event that never
	// passed through a Tracer.
	Seq uint64
}
