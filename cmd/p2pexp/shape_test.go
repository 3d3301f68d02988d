package main

import (
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"sgxp2p/internal/stats"
)

// table is one experiment of the golden: its column names and its rows.
type table struct {
	cols []string
	rows [][]string
}

var cellGap = regexp.MustCompile(`\s{2,}`)

// parseGolden splits p2pexp's recorded output into its tables by
// experiment id ("== id: title ==" opens one; notes and the dashed rule
// are not rows).
func parseGolden(t *testing.T, path string) map[string]*table {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tables := make(map[string]*table)
	var cur *table
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			id, _, _ := strings.Cut(strings.TrimPrefix(line, "== "), ":")
			cur = &table{}
			tables[id] = cur
		case cur == nil, strings.HasPrefix(line, "note:"), strings.Trim(line, "- ") == "":
		case cur.cols == nil:
			cur.cols = cellGap.Split(line, -1)
		default:
			cur.rows = append(cur.rows, cellGap.Split(line, -1))
		}
	}
	return tables
}

// num reads column col of every row as a number; a trailing % is dropped
// and "1/32" is a fraction.
func (tb *table) num(t *testing.T, col string) []float64 {
	t.Helper()
	idx := -1
	for i, c := range tb.cols {
		if c == col {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("no column %q in %v", col, tb.cols)
	}
	out := make([]float64, len(tb.rows))
	for i, row := range tb.rows {
		cell := strings.TrimSuffix(row[idx], "%")
		if a, b, frac := strings.Cut(cell, "/"); frac {
			x, errA := strconv.ParseFloat(a, 64)
			y, errB := strconv.ParseFloat(b, 64)
			if errA != nil || errB != nil {
				t.Fatalf("column %q row %d: %q", col, i, row[idx])
			}
			out[i] = x / y
			continue
		}
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			t.Fatalf("column %q row %d: %q", col, i, row[idx])
		}
		out[i] = v
	}
	return out
}

// slope is the fitted exponent of y over x (stats.FitPowerLaw), over the
// points whose y is at least yMin (a size printed as 0.01 MB has one
// digit).
func slope(t *testing.T, x, y []float64, yMin float64) float64 {
	t.Helper()
	var xs, ys []float64
	for i := range x {
		if y[i] >= yMin {
			xs, ys = append(xs, x[i]), append(ys, y[i])
		}
	}
	k, _, err := stats.FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestGoldenKeepsPaperShape reads the recorded figures and checks the
// shapes DESIGN.md §4 calls "reproduced": `make figures-check` holds the
// output to the golden byte for byte, and this holds the golden to the
// paper, so a re-recorded file cannot quietly lose one.
func TestGoldenKeepsPaperShape(t *testing.T) {
	g := parseGolden(t, "testdata/all.golden")
	between := func(what string, got, lo, hi float64) {
		t.Helper()
		if !(got >= lo && got <= hi) {
			t.Errorf("%s = %.2f, want %.2f..%.2f", what, got, lo, hi)
		}
	}

	// fig3a: ERB traffic is quadratic in N — 2N² envelopes of one size.
	fig3a := g["fig3a"]
	n := fig3a.num(t, "N")
	between("fig3a: log-log slope of ERB bytes over N", slope(t, n, fig3a.num(t, "Ex (MB)"), 0.05), 1.9, 2.1)
	between("fig3a: log-log slope of ERB messages over N", slope(t, n[2:], fig3a.num(t, "messages")[2:], 1), 1.9, 2.1)

	// fig3b: unoptimized ERNG traffic is cubic, and Algorithm 6 saves tens
	// of percent of it at every size past the smallest.
	fig3b := g["fig3b"]
	between("fig3b: log-log slope of ERNG-0 bytes over N", slope(t, fig3b.num(t, "N"), fig3b.num(t, "Ex-ERNG-0 (MB)"), 0.05), 2.85, 3.2)
	for i, s := range fig3b.num(t, "savings") {
		between("fig3b: ERNG-1 savings (%) in row "+strconv.Itoa(i), s, 30, 90)
	}

	// fig2a: an honest initiator's broadcast ends in round 2 at every N.
	for i, r := range g["fig2a"].num(t, "rounds") {
		between("fig2a: rounds in row "+strconv.Itoa(i), r, 2, 2)
	}

	// fig2c: under a chain of f the decision comes in round min{f+2, t+2},
	// P4 halts exactly the chain, and time is linear in f.
	fig2c := g["fig2c"]
	const n2c = 128
	f := fig2c.num(t, "f")
	rounds, halted, secs, frac := fig2c.num(t, "rounds"), fig2c.num(t, "halted byz"), fig2c.num(t, "termination (s)"), fig2c.num(t, "byz fraction")
	for i := range f {
		want := math.Min(f[i]+2, float64((n2c-1)/2+2))
		between("fig2c: rounds at f="+strconv.Itoa(int(f[i])), rounds[i], want, want)
		between("fig2c: halted at f="+strconv.Itoa(int(f[i])), halted[i], f[i], f[i])
		between("fig2c: fraction at f="+strconv.Itoa(int(f[i])), frac[i], f[i]/n2c, f[i]/n2c)
	}
	between("fig2c: seconds per chain node, f=16..32", (secs[len(secs)-1]-secs[len(secs)-2])/(f[len(f)-1]-f[len(f)-2]), 1.9, 2.1)

	// fig3c: halted nodes stop echoing and acknowledging, so traffic falls
	// with the byzantine fraction, to about half the honest run's at 1/4.
	vs := g["fig3c"].num(t, "vs honest")
	for i := 1; i < len(vs); i++ {
		if vs[i] >= vs[i-1] {
			t.Errorf("fig3c: traffic %v%% of honest does not fall with the byzantine fraction", vs)
		}
	}
	between("fig3c: traffic at 1/4 byzantine, % of honest", vs[len(vs)-1], 40, 60)

	// tab1/tab2: the fitted message growth exponents: ERB N², the
	// baselines and basic ERNG N³ (over sizes this small the strawman
	// and RBsig fits still sit near 2: the table records them, this does
	// not), Algorithm 6 below Algorithm 3.
	tab1, tab2 := g["tab1"], g["tab2"]
	between("tab1: ERB message growth exponent", tab1.num(t, "msg growth exp")[0], 1.9, 2.2)
	between("tab1: ERB rounds, honest", tab1.num(t, "rounds honest")[0], 2, 2)
	between("tab1: ERB rounds, chain f=N/4 at N=64", tab1.num(t, "rounds chain f=N/4")[0], 18, 18)
	exp2 := tab2.num(t, "msg growth exp")
	between("tab2: basic ERNG message growth exponent", exp2[0], 2.85, 3.2)
	if exp2[1] >= exp2[0] {
		t.Errorf("tab2: optimized ERNG grows as N^%.2f, basic as N^%.2f", exp2[1], exp2[0])
	}
}
