// Command benchab runs the repo benchmark as an A/B between a base
// revision and the working tree, the way a performance claim is judged:
// it builds ./bench from a temporary git worktree of the base and from
// the working tree, runs pairs of one workload on one seed (the side that
// runs first alternates), and prints each pair's end-to-end metrics, both
// sides' medians and quartiles, and how many pairs the change won on each
// metric. Which way is better
// comes from BENCHMARK.json; it removes its worktree when it is done.
//
//	benchab -base <rev> -workload <name> [-pairs 10] [-seconds 8] [-seed 1]
//
// `make bench-ab BASE=<rev> WORKLOAD=<name> PAIRS=<k> SECONDS=<s>` runs it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"text/tabwriter"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

// metricDef is one end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// result is the last stdout line of `bench -workload`.
type result struct {
	Failed  int `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchab", flag.ContinueOnError)
	var (
		base     = fs.String("base", "", "git revision to compare the working tree against")
		workload = fs.String("workload", "", "bench workload to run")
		pairs    = fs.Int("pairs", 10, "base/change pairs")
		seconds  = fs.Int("seconds", 8, "timed window of each run")
		seed     = fs.Int64("seed", 1, "bench -seed of every run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" || *workload == "" || *pairs < 1 || *seconds < 1 {
		return fmt.Errorf("usage: benchab -base <rev> -workload <name> [-pairs k] [-seconds s] [-seed n]")
	}
	var def struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err = json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}

	dir, err := os.MkdirTemp("", "bench-ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tree := filepath.Join(dir, "base")
	if err = command("", "git", "worktree", "add", "--detach", "--quiet", tree, *base); err != nil {
		return err
	}
	// Best effort: a failed removal leaves a record `git worktree prune` clears.
	defer command("", "git", "worktree", "remove", "--force", tree)
	sides := [2]string{"base", "change"}
	bins := [2]string{filepath.Join(dir, "bench-base"), filepath.Join(dir, "bench-change")}
	if err = command(tree, "go", "build", "-o", bins[0], "./bench"); err != nil {
		return err
	}
	if err = command("", "go", "build", "-o", bins[1], "./bench"); err != nil {
		return err
	}

	// runs[side][metric] holds one value per pair; side 0 is the base.
	var runs [2]map[string][]float64
	for side := range runs {
		runs[side] = map[string][]float64{}
	}
	w := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "%s seed=%d seconds=%d, base %s\t", *workload, *seed, *seconds, *base)
	for _, m := range def.EndToEnd {
		fmt.Fprintf(w, "%s\t", m.Name)
	}
	fmt.Fprintln(w)
	for p := 0; p < *pairs; p++ {
		// Which side runs first alternates, so a host that drifts within a
		// pair favours neither.
		for i := range bins {
			side := (i + p) % 2
			bin := bins[side]
			res, err := runBench(bin, *workload, *seed, *seconds)
			if err != nil {
				return err
			}
			if res.Failed > 0 {
				return fmt.Errorf("pair %d: %s failed %d ops", p+1, filepath.Base(bin), res.Failed)
			}
			fmt.Fprintf(os.Stderr, "benchab: pair %d/%d %s done\n", p+1, *pairs, sides[side])
			fmt.Fprintf(w, "pair %d %s\t", p+1, sides[side])
			for _, m := range def.EndToEnd {
				v := res.Metrics[m.Name].Value
				runs[side][m.Name] = append(runs[side][m.Name], v)
				fmt.Fprintf(w, "%.6g\t", v)
			}
			fmt.Fprintln(w)
		}
	}
	for side, name := range sides {
		fmt.Fprintf(w, "median (quartiles) %s\t", name)
		for _, m := range def.EndToEnd {
			q1, q2, q3 := quartiles(runs[side][m.Name])
			fmt.Fprintf(w, "%.6g (%.6g–%.6g)\t", q2, q1, q3)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "change won (of %d)\t", *pairs)
	for _, m := range def.EndToEnd {
		won := 0
		for i, b := range runs[0][m.Name] {
			c := runs[1][m.Name][i]
			if (m.Better == "lower" && c < b) || (m.Better == "higher" && c > b) {
				won++
			}
		}
		fmt.Fprintf(w, "%d\t", won)
	}
	fmt.Fprintln(w)
	return w.Flush()
}

// command runs name with args in dir (the working directory when empty),
// its output passed through to stderr.
func command(dir, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %v: %w", name, args, err)
	}
	return nil
}

// runBench runs one end-to-end pass and decodes its result line.
func runBench(bin, workload string, seed int64, seconds int) (result, error) {
	cmd := exec.Command(bin, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", filepath.Base(bin), err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s: result line: %w", filepath.Base(bin), err)
	}
	return res, nil
}

// quartiles returns the first quartile, the median and the third
// quartile of vs, each the mean of the two middle values of its half (or
// whole) when that has an even count.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	median := func(v []float64) float64 {
		if len(v)%2 == 1 {
			return v[len(v)/2]
		}
		return (v[len(v)/2-1] + v[len(v)/2]) / 2
	}
	return median(s[:(len(s)+1)/2]), median(s), median(s[len(s)/2:])
}
