package scenario

import (
	"bufio"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestDirectoryRoundTrip writes an n-entry directory as the barrier
// releases it and reads it back as a node does: every address, quote and
// sequence number survives, and so does the START instant.
func TestDirectoryRoundTrip(t *testing.T) {
	for _, n := range []int{1, 4, 33} {
		table := testTable(t, n)
		got, err := parsePeers(formatPeers(table), n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(got, table) {
			t.Fatalf("n=%d: directory changed in the round trip", n)
		}
		start := time.UnixMilli(1_700_000_000_123)
		rd := bufio.NewReader(strings.NewReader(fmt.Sprintf("%s\nSTART %d\n", formatPeers(table), start.UnixMilli())))
		got, at, err := ReadRelease(rd, n)
		if err != nil || !reflect.DeepEqual(got, table) || !at.Equal(start) {
			t.Fatalf("n=%d: ReadRelease = %v, %v", n, at, err)
		}
	}
	var sb strings.Builder
	e := testEntry(t, 2, "127.0.0.1:7102", 5)
	if err := WriteReady(&sb, e); err != nil {
		t.Fatal(err)
	}
	if got, err := parseReady(strings.TrimSuffix(sb.String(), "\n"), 3); err != nil || !reflect.DeepEqual(got, e) {
		t.Fatalf("READY round trip: %v", err)
	}
}

// TestParsePeersRejects feeds the parser directories that are malformed
// one way each; every one must be refused with its own reason.
func TestParsePeersRejects(t *testing.T) {
	const n = 4
	table := testTable(t, n)
	entries := func(es ...Entry) []string {
		out := make([]string, len(es))
		for i, e := range es {
			out[i] = e.String()
		}
		return out
	}
	good := entries(table...)
	// with replaces entry i's field f (0 id, 1 address, 2 quote, 3 seq).
	with := func(i, f int, v string) []string {
		out := append([]string(nil), good...)
		fields := strings.Split(out[i], " ")
		fields[f] = v
		out[i] = strings.Join(fields, " ")
		return out
	}
	quote := strings.Split(good[1], " ")[2]
	other := testEntry(t, 2, table[1].Addr, 7)
	for _, c := range []struct {
		name  string
		parts []string
		want  string
	}{
		{"truncated quote", with(1, 2, quote[:len(quote)-2]), "quote is not"},
		{"odd-length quote", with(1, 2, quote[:len(quote)-1]), "quote is not"},
		{"non-hex quote", with(1, 2, "zz"+quote[2:]), "quote is not"},
		{"missing id", good[:3], "missing ids [3]"},
		{"duplicated id", append(append([]string(nil), good[:3]...), good[2]), "listed twice"},
		{"id out of range", with(3, 0, "4"), "id not in"},
		{"signed id", with(3, 0, "+3"), "id not in"},
		{"quote names another node", with(1, 2, strings.Split(other.String(), " ")[2]), "quote names node 2"},
		{"bad address", with(1, 1, "nowhere"), "address"},
		{"bad seq", with(1, 3, "-1"), "sequence number"},
		{"extra field", []string{good[0] + " x", good[1], good[2], good[3]}, "want <id>"},
	} {
		_, err := parsePeers("PEERS "+strings.Join(c.parts, ","), n)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
	if _, err := parsePeers(formatPeers(table), n); err != nil {
		t.Fatalf("the unmodified directory was refused: %v", err)
	}
	if _, err := parseReady("READY "+with(1, 2, quote[:len(quote)-2])[1], n); err == nil {
		t.Error("READY with a truncated quote accepted")
	}
}
