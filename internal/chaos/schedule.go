// Package chaos implements a deterministic, seed-driven fault-schedule
// engine for the simulated deployments: crash–restart churn, network
// partitions and mid-run adversary behavior flips, all expressed as a
// reproducible program over lockstep rounds.
//
// A Schedule is compiled by an Engine into virtual-clock events, armed
// before the peers start, that act on the deployment's nodes and their
// OSes. Because the
// simulator orders same-instant events by scheduling sequence, every
// chaos event at a round boundary fires before any peer's round tick at
// that boundary — so "crash node 3 at round 2" means node 3 never
// executes round 2, on every run of the same seed, bit for bit
// (vclock.TraceHash is the witness).
//
// Every fault the schedule can express reduces to the paper's general
// omission model (attacks A1–A5 all surface as omissions), so the ERB/
// ERNG guarantees must hold whenever the schedule's faulty set stays
// within the byzantine bound t. The invariant suite in this package
// checks exactly that over randomized schedules.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/wire"
)

// Kind enumerates schedule event kinds.
type Kind int

// Schedule event kinds.
const (
	// KindCrash stops a node's machine at a round boundary.
	KindCrash Kind = iota + 1
	// KindRestart reboots a crashed node (deploy.Restart).
	KindRestart
	// KindFlip swaps the node's byzantine OS behavior.
	KindFlip
	// KindPartition splits the network into disconnected groups.
	KindPartition
	// KindHeal removes the active partition.
	KindHeal
)

// Event is one entry of a fault schedule, pinned to the start of a
// lockstep round (1-based).
type Event struct {
	Round int
	Kind  Kind
	// Node is the subject of crash/restart/flip events.
	Node wire.NodeID
	// Behavior is what a flip sets on the node's OS; the zero value flips
	// it back to honest.
	Behavior adversary.Behavior
	// Groups is the partition layout: nodes in different groups cannot
	// exchange messages while the partition is active. Nodes listed in
	// no group implicitly belong to group 0.
	Groups [][]wire.NodeID
}

// Schedule is a deterministic fault program over lockstep rounds. Build
// one with the chainable methods below (or Generate) and hand it to
// NewEngine. The zero value is an empty (fault-free) schedule.
type Schedule struct {
	events    []Event
	lastCrash map[wire.NodeID]int
}

// NewSchedule returns an empty schedule.
func NewSchedule() *Schedule { return &Schedule{} }

// add appends an event keeping the slice sorted by round (stable: events
// of the same round apply in insertion order).
func (s *Schedule) add(ev Event) *Schedule {
	i := len(s.events)
	for i > 0 && s.events[i-1].Round > ev.Round {
		i--
	}
	s.events = append(s.events, Event{})
	copy(s.events[i+1:], s.events[i:])
	s.events[i] = ev
	return s
}

// CrashAt stops node's machine at the start of the given round: the node
// executes no round ≥ round until restarted, and the network drops its
// traffic both ways.
func (s *Schedule) CrashAt(node wire.NodeID, round int) *Schedule {
	if s.lastCrash == nil {
		s.lastCrash = make(map[wire.NodeID]int)
	}
	s.lastCrash[node] = round
	return s.add(Event{Round: round, Kind: KindCrash, Node: node})
}

// RestartAfter reboots node the given number of rounds after its most
// recent CrashAt. Without a preceding CrashAt it is ignored. The
// restarted node re-attests and re-derives its session keys but sits out
// the in-flight instance; it participates again from the next epoch.
func (s *Schedule) RestartAfter(node wire.NodeID, rounds int) *Schedule {
	crash, ok := s.lastCrash[node]
	if !ok || rounds < 1 {
		return s
	}
	return s.add(Event{Round: crash + rounds, Kind: KindRestart, Node: node})
}

// FlipBehavior sets node's OS behavior at the start of the given round;
// the zero Behavior flips the node back to honest.
func (s *Schedule) FlipBehavior(node wire.NodeID, round int, b adversary.Behavior) *Schedule {
	return s.add(Event{Round: round, Kind: KindFlip, Node: node, Behavior: b})
}

// Partition splits the network into the given groups from the start of
// fromRound until the start of toRound (i.e. active during rounds
// fromRound..toRound-1). Nodes not listed in any group belong to group 0.
func (s *Schedule) Partition(groups [][]wire.NodeID, fromRound, toRound int) *Schedule {
	s.add(Event{Round: fromRound, Kind: KindPartition, Groups: groups})
	if toRound > fromRound {
		s.Heal(toRound)
	}
	return s
}

// Heal removes any active partition at the start of the given round.
func (s *Schedule) Heal(round int) *Schedule {
	return s.add(Event{Round: round, Kind: KindHeal})
}

// Events returns the schedule's events in application order.
func (s *Schedule) Events() []Event { return s.events }

// Len returns the number of events.
func (s *Schedule) Len() int { return len(s.events) }

// Faulty returns the sorted set of nodes the schedule makes faulty in a
// network of n nodes: every crashed or flipped node, plus — for each
// partition — every node outside the largest group (the majority side
// keeps the guarantees; the cut-off minority is charged to the fault
// budget, exactly like the general-omission accounting of the paper).
func (s *Schedule) Faulty(n int) []wire.NodeID {
	faulty := make([]bool, n)
	for _, ev := range s.events {
		switch ev.Kind {
		case KindCrash, KindFlip:
			if int(ev.Node) < n {
				faulty[ev.Node] = true
			}
		case KindPartition:
			group := groupOf(ev.Groups, n)
			size := make([]int, len(ev.Groups)+1)
			for _, gi := range group {
				size[gi]++
			}
			largest := 0
			for gi := range size {
				if size[gi] > size[largest] {
					largest = gi
				}
			}
			for id, gi := range group {
				if gi != largest {
					faulty[id] = true
				}
			}
		}
	}
	out := make([]wire.NodeID, 0, n)
	for id, f := range faulty {
		if f {
			out = append(out, wire.NodeID(id))
		}
	}
	return out
}

// Validate checks the schedule against a network of n nodes and a fault
// budget t: all node ids in range, all rounds ≥ 1, partition groups
// disjoint, and |Faulty| ≤ t.
func (s *Schedule) Validate(n, t int) error {
	for _, ev := range s.events {
		if ev.Round < 1 {
			return fmt.Errorf("chaos: event round %d < 1", ev.Round)
		}
		switch ev.Kind {
		case KindCrash, KindRestart, KindFlip:
			if int(ev.Node) >= n {
				return fmt.Errorf("chaos: node %d out of range (n=%d)", ev.Node, n)
			}
		case KindPartition:
			seen := make([]bool, n)
			for _, g := range ev.Groups {
				for _, id := range g {
					if int(id) >= n {
						return fmt.Errorf("chaos: partition node %d out of range (n=%d)", id, n)
					}
					if seen[id] {
						return fmt.Errorf("chaos: node %d in two partition groups", id)
					}
					seen[id] = true
				}
			}
		}
	}
	if f := len(s.Faulty(n)); f > t {
		return fmt.Errorf("chaos: schedule makes %d nodes faulty, budget t=%d", f, t)
	}
	return nil
}

// String renders the schedule canonically: one token per event in
// application order. Two schedules with equal String() apply the same
// fault program. ParseSchedule reads it back.
func (s *Schedule) String() string {
	if len(s.events) == 0 {
		return "fault-free"
	}
	toks := make([]string, len(s.events))
	for i, ev := range s.events {
		toks[i] = ev.String()
	}
	return strings.Join(toks, " ")
}

// String renders the event as its schedule token, e.g. "crash(4)@r10".
func (ev Event) String() string {
	switch ev.Kind {
	case KindCrash:
		return fmt.Sprintf("crash(%d)@r%d", ev.Node, ev.Round)
	case KindRestart:
		return fmt.Sprintf("restart(%d)@r%d", ev.Node, ev.Round)
	case KindFlip:
		return fmt.Sprintf("flip(%d,%s)@r%d", ev.Node, ev.Behavior, ev.Round)
	case KindPartition:
		return fmt.Sprintf("part([%s])@r%d", groupsString(ev.Groups), ev.Round)
	case KindHeal:
		return fmt.Sprintf("heal@r%d", ev.Round)
	}
	return fmt.Sprintf("kind%d@r%d", ev.Kind, ev.Round)
}

// ParseSchedule reads a schedule back from its String() form — the text
// Outcome.Repro prints and a scenario manifest's "faults" holds. A flip's
// behavior is read by adversary.ParseBehavior.
func ParseSchedule(text string) (*Schedule, error) {
	s := NewSchedule()
	if strings.TrimSpace(text) == "fault-free" {
		return s, nil
	}
	// A partition's groups hold spaces: rejoin fields inside its brackets.
	var toks []string
	for _, f := range strings.Fields(text) {
		if k := len(toks) - 1; k >= 0 && strings.Count(toks[k], "[") > strings.Count(toks[k], "]") {
			toks[k] += " " + f
			continue
		}
		toks = append(toks, f)
	}
	for _, tok := range toks {
		if err := s.parseEvent(tok); err != nil {
			return nil, fmt.Errorf("chaos: %q: %w", tok, err)
		}
	}
	return s, nil
}

// parseEvent appends the event one schedule token describes.
func (s *Schedule) parseEvent(tok string) error {
	head, r, ok := strings.Cut(tok, "@r")
	if !ok {
		return fmt.Errorf("no @r<round>")
	}
	round, err := strconv.Atoi(r)
	if err != nil || round < 1 {
		return fmt.Errorf("round %q is not a round ≥ 1", r)
	}
	name, args, _ := strings.Cut(head, "(")
	args, closed := strings.CutSuffix(args, ")")
	switch {
	case head == "heal":
		s.Heal(round)
	case closed && (name == "crash" || name == "restart"):
		node, err := parseID(args)
		if err != nil {
			return err
		}
		if name == "crash" {
			s.CrashAt(node, round)
		} else {
			s.add(Event{Round: round, Kind: KindRestart, Node: node})
		}
	case closed && name == "flip":
		id, label, _ := strings.Cut(args, ",")
		node, err := parseID(id)
		if err != nil {
			return err
		}
		b, err := adversary.ParseBehavior(label)
		if err != nil {
			return err
		}
		s.FlipBehavior(node, round, b)
	case closed && name == "part" && strings.HasPrefix(args, "[") && strings.HasSuffix(args, "]"):
		var groups [][]wire.NodeID
		for _, g := range strings.Split(args[1:len(args)-1], "|") {
			group := []wire.NodeID{}
			for _, id := range strings.Fields(g) {
				node, err := parseID(id)
				if err != nil {
					return err
				}
				group = append(group, node)
			}
			groups = append(groups, group)
		}
		s.Partition(groups, round, round)
	default:
		return fmt.Errorf("unknown event")
	}
	return nil
}

// parseID reads one node id.
func parseID(text string) (wire.NodeID, error) {
	id, err := strconv.ParseUint(text, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("node %q is not a node id", text)
	}
	return wire.NodeID(id), nil
}

// UnmarshalText makes a schedule decodable from its String() form, as a
// scenario manifest's "faults" string is.
func (s *Schedule) UnmarshalText(text []byte) error {
	parsed, err := ParseSchedule(string(text))
	if err != nil {
		return err
	}
	*s = *parsed
	return nil
}

// groupOf maps each of n nodes to its partition group; a node listed in
// no group is in group 0.
func groupOf(groups [][]wire.NodeID, n int) []int {
	group := make([]int, n)
	for gi, g := range groups {
		for _, id := range g {
			if int(id) < n {
				group[id] = gi
			}
		}
	}
	return group
}

// groupsString renders a partition layout canonically: groups separated
// by '|', members by spaces ("0 1|2 3"). Shared by Schedule.String and
// the engine's partition trace events.
func groupsString(groups [][]wire.NodeID) string {
	out := make([]string, len(groups))
	for gi, g := range groups {
		ids := make([]string, len(g))
		for i, id := range g {
			ids[i] = fmt.Sprint(id)
		}
		out[gi] = strings.Join(ids, " ")
	}
	return strings.Join(out, "|")
}

// sortIDs sorts a node id slice in place and returns it.
func sortIDs(ids []wire.NodeID) []wire.NodeID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
