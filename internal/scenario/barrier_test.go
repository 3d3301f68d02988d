package scenario

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"sgxp2p/internal/enclave"
	"sgxp2p/internal/wire"
)

// testEntry launches and attests node id's enclave from a seeded reader,
// as p2pnode does, and returns its directory entry at addr.
func testEntry(t *testing.T, id int, addr string, seed int64) Entry {
	t.Helper()
	svc, err := enclave.NewAttestationService(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := enclave.Launch([]byte("barrier-test"), wire.NodeID(id), rand.New(rand.NewSource(seed)), enclave.NewWallClock())
	if err != nil {
		t.Fatal(err)
	}
	seq, err := e.RandomSeq()
	if err != nil {
		t.Fatal(err)
	}
	return Entry{Addr: addr, Quote: svc.Attest(e), Seq: seq}
}

// testTable is a directory of n test entries.
func testTable(t *testing.T, n int) []Entry {
	t.Helper()
	table := make([]Entry, n)
	for i := range table {
		table[i] = testEntry(t, i, fmt.Sprintf("127.0.0.1:9%02d0", i), int64(i+1))
	}
	return table
}

// fakeNode is a minimal stand-in for p2pnode's control client.
type fakeNode struct {
	conn net.Conn
	rd   *bufio.Reader
}

func dialFake(t *testing.T, addr string, self Entry) *fakeNode {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteReady(conn, self); err != nil {
		t.Fatal(err)
	}
	return &fakeNode{conn: conn, rd: bufio.NewReader(conn)}
}

// release reads the PEERS+START pair a fleet of n is released with.
func (f *fakeNode) release(t *testing.T, n int) ([]Entry, time.Time) {
	t.Helper()
	f.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	table, start, err := ReadRelease(f.rd, n)
	if err != nil {
		t.Fatal(err)
	}
	return table, start
}

// TestBarrierHandshake pins the READY→PEERS+START→DONE conversation: every
// node is released with every node's address, quote and sequence number.
func TestBarrierHandshake(t *testing.T) {
	b, err := NewBarrier(3, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	want := testTable(t, 3)
	nodes := make([]*fakeNode, 3)
	for i := 0; i < 3; i++ {
		nodes[i] = dialFake(t, b.Addr(), want[i])
		defer nodes[i].conn.Close()
	}
	if err := b.AwaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	start := time.Now().Add(500 * time.Millisecond)
	if err := b.Release(start); err != nil {
		t.Fatal(err)
	}
	for i, node := range nodes {
		table, at := node.release(t, 3)
		if !reflect.DeepEqual(table, want) {
			t.Fatalf("node %d got directory %v, want %v", i, table, want)
		}
		if at.UnixMilli() != start.UnixMilli() {
			t.Fatalf("node %d got start %v, want %v", i, at, start)
		}
	}

	fmt.Fprintf(nodes[0].conn, "DONE\n")
	fmt.Fprintf(nodes[1].conn, "FAIL boom\n")
	nodes[2].conn.Close()

	got := map[string]int{}
	deadline := time.After(5 * time.Second)
	for len(got) < 3 {
		select {
		case ev := <-b.Events():
			if ev.Kind != "ready" {
				got[fmt.Sprintf("%d:%s", ev.ID, ev.Kind)] = 1
				if ev.Kind == "fail" && ev.Detail != "boom" {
					t.Fatalf("fail detail %q", ev.Detail)
				}
			}
		case <-deadline:
			t.Fatalf("events so far: %v", got)
		}
	}
	for _, want := range []string{"0:done", "1:fail", "2:disconnect"} {
		if got[want] == 0 {
			t.Fatalf("missing event %s in %v", want, got)
		}
	}
}

// TestBarrierLateJoiner pins the restart path: a READY arriving after the
// release that announces the node's first enclave gets the stored
// directory and START instant immediately; one announcing another
// enclave — a different quote, or a different sequence number — is
// refused and reported as a failed node.
func TestBarrierLateJoiner(t *testing.T) {
	b, err := NewBarrier(2, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	want := testTable(t, 2)
	n0 := dialFake(t, b.Addr(), want[0])
	defer n0.conn.Close()
	n1 := dialFake(t, b.Addr(), want[1])
	if err := b.AwaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	start := time.Now().Add(time.Second)
	if err := b.Release(start); err != nil {
		t.Fatal(err)
	}
	n0.release(t, 2)
	n1.release(t, 2)

	// Node 1 "crashes" and a new incarnation checks in late.
	n1.conn.Close()
	n1b := dialFake(t, b.Addr(), want[1])
	defer n1b.conn.Close()
	table, at := n1b.release(t, 2)
	if !reflect.DeepEqual(table, want) {
		t.Fatalf("late joiner directory %v, want the stored %v", table, want)
	}
	if at.UnixMilli() != start.UnixMilli() {
		t.Fatalf("late joiner start %v (want the original instant %v)", at, start)
	}
	if addr, ok := b.NodeAddr(1); !ok || addr != want[1].Addr {
		t.Fatalf("NodeAddr(1) = %q, %v", addr, ok)
	}

	reseq := want[1]
	reseq.Seq++
	for _, c := range []struct {
		name  string
		entry Entry
	}{
		{"other quote", testEntry(t, 1, want[1].Addr, 99)},
		{"other seq", reseq},
	} {
		imp := dialFake(t, b.Addr(), c.entry)
		imp.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if line, err := imp.rd.ReadString('\n'); err == nil {
			t.Fatalf("%s: relaunch announcing another enclave was sent %q", c.name, line)
		}
		imp.conn.Close()
		if ev := awaitEvent(t, b, 1, "fail"); !strings.Contains(ev.Detail, "other than the node's first") {
			t.Fatalf("%s: refusal reported as %q", c.name, ev.Detail)
		}
	}
}

// awaitEvent returns the next event of the given kind about node id.
func awaitEvent(t *testing.T, b *Barrier, id int, kind string) NodeEvent {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-b.Events():
			if ev.ID == id && ev.Kind == kind {
				return ev
			}
		case <-deadline:
			t.Fatalf("no %s event for node %d", kind, id)
		}
	}
}

// TestBarrierAwaitReadyTimeout pins the actionable timeout message.
func TestBarrierAwaitReadyTimeout(t *testing.T) {
	b, err := NewBarrier(3, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	n0 := dialFake(t, b.Addr(), testEntry(t, 0, "127.0.0.1:9200", 1))
	defer n0.conn.Close()
	// Give the barrier a moment to register node 0.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := b.NodeAddr(0); ok || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	err = b.AwaitReady(50 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "missing [1 2]") {
		t.Fatalf("err = %v, want missing [1 2]", err)
	}
}
