package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the binary reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worsening returns by what share of a the value b is worse than a, in the
// metric's own direction (negative when b is better).
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 1
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, for every workload and end-to-end metric, both
// values, by how much the second is worse and the bound, and fails when
// any bound is exceeded or a workload failed ops.
func compareFiles(w io.Writer, benchmarkPath, pathA, pathB string) error {
	var def benchmarkFile
	var a, b results
	if err := readJSON(benchmarkPath, &def); err != nil {
		return err
	}
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	for _, r := range []struct {
		path string
		res  results
	}{{pathA, a}, {pathB, b}} {
		h := r.res.Host
		note := ""
		if h.Noisy {
			note = "  NOISY"
		}
		fmt.Fprintf(w, "%s: %s, GOMAXPROCS=%d of %d, %s, load %.2f -> %.2f%s\n",
			r.path, h.GoVersion, h.GoMaxProcs, h.NumCPU, h.CPUModel, h.LoadStart, h.LoadEnd, note)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tbound\t")
	exceeded := 0
	for _, wl := range def.Workloads {
		ra, okA := a.Workloads[wl.Name]
		rb, okB := b.Workloads[wl.Name]
		if !okA || !okB {
			return fmt.Errorf("workload %s is missing from a result file", wl.Name)
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(tw, "%s\tfailed_ops\t%d\t%d\t\tmust be 0\tEXCEEDED\n", wl.Name, ra.Failed, rb.Failed)
			exceeded++
		}
		for _, m := range def.EndToEnd {
			va, vb := ra.EndToEnd[m.Name].Value, rb.EndToEnd[m.Name].Value
			worse := worsening(m.Better, va, vb)
			verdict := ""
			if worse > m.Bound {
				verdict = "EXCEEDED"
				exceeded++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%s\n", wl.Name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
	}
	tw.Flush()
	if exceeded > 0 {
		return fmt.Errorf("%d bound(s) exceeded", exceeded)
	}
	return nil
}
