package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFiles are where the benchmark definition is looked for: the
// repository root the benchmark runs in, or its parent when `go test` runs
// in bench/.
var benchmarkFiles = []string{"BENCHMARK.json", "../BENCHMARK.json"}

// definition is the part of BENCHMARK.json the benchmark reads.
type definition struct {
	Workloads []workloadDef `json:"workloads"`
	EndToEnd  []metricDef   `json:"end_to_end"`
	PerLayer  []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDefinition() (definition, error) {
	var def definition
	for _, path := range benchmarkFiles {
		b, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return def, err
		}
		if err := json.Unmarshal(b, &def); err != nil {
			return def, fmt.Errorf("%s: %w", path, err)
		}
		return def, nil
	}
	return def, fmt.Errorf("no benchmark definition at %v", benchmarkFiles)
}

// declared returns the metrics a run reports: the end-to-end ones, or the
// per-layer ones for a traced run.
func (d definition) declared(traced bool) []metricDef {
	if traced {
		return d.PerLayer
	}
	return d.EndToEnd
}

// compareMain implements `bench compare <a.json...> -- <b.json...>`: for
// every workload and end-to-end metric it sets the medians of side b against
// side a and applies the metric's bound from BENCHMARK.json. A metric whose
// spread within either side exceeds its bound is "unresolved" unless every b
// run reads better than every a run. It returns 1 when any metric regressed
// and 2 on bad input, including reports from different hosts.
func compareMain(args []string, out io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
			break
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <a.json...> -- <b.json...>")
		return 2
	}
	def, err := loadDefinition()
	var rows []compareRow
	if err == nil {
		rows, err = compare(def, args[:split], args[split+1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	return printComparison(out, rows)
}

type compareRow struct {
	workload, metric, unit  string
	medA, medB, change      float64
	spreadA, spreadB, bound float64
	verdict                 string
}

// compare loads both sides' reports and judges every (workload, metric).
func compare(def definition, aFiles, bFiles []string) ([]compareRow, error) {
	a, err := loadReports(aFiles)
	if err != nil {
		return nil, err
	}
	b, err := loadReports(bFiles)
	if err != nil {
		return nil, err
	}
	ref := a[0].Host
	for _, rep := range append(append([]report(nil), a...), b...) {
		if !rep.Host.sameMachine(ref) {
			return nil, fmt.Errorf("reports come from different hosts (%s vs %s); compare runs of one host only",
				rep.Host.identity(), ref.identity())
		}
	}
	var rows []compareRow
	for _, w := range def.Workloads {
		for _, m := range def.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rows = append(rows, judge(w.Name, m, va, vb))
		}
	}
	if len(rows) == 0 {
		return nil, errors.New("no workload has untraced runs on both sides")
	}
	return rows, nil
}

// judge applies one metric's bound to both sides' values.
func judge(workload string, m metricDef, va, vb []float64) compareRow {
	row := compareRow{workload: workload, metric: m.Name, unit: m.Unit, bound: m.Bound,
		medA: median(va), medB: median(vb), spreadA: spread(va), spreadB: spread(vb)}
	sign := 1.0 // worse = positive change
	if m.Better == "higher" {
		sign = -1
	}
	if row.medA != 0 {
		row.change = sign * (row.medB - row.medA) / math.Abs(row.medA)
	}
	allBetter := true
	for _, x := range va {
		for _, y := range vb {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case row.spreadA > m.Bound || row.spreadB > m.Bound:
		row.verdict = "unresolved"
		if allBetter {
			row.verdict = "better"
		}
	case row.change > m.Bound:
		row.verdict = "REGRESSION"
	default:
		row.verdict = "within bound"
	}
	return row
}

func printComparison(out io.Writer, rows []compareRow) int {
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median\tb median\tworse by\tspread a\tspread b\tbound\tverdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
			r.workload, r.metric, r.medA, r.unit, r.medB, r.unit, 100*r.change,
			100*r.spreadA, 100*r.spreadB, 100*r.bound, r.verdict)
		if r.verdict == "REGRESSION" {
			code = 1
		}
	}
	tw.Flush()
	return code
}

// loadReports reads the full report at the head of each file (a run's
// standard output, whose last line is the summary).
func loadReports(files []string) ([]report, error) {
	var reps []report
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		var rep report
		err = json.NewDecoder(fh).Decode(&rep)
		fh.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// values collects one metric of one workload's untraced runs.
func values(reps []report, workload, name string) []float64 {
	var out []float64
	for _, rep := range reps {
		if rep.Workload != workload || rep.Trace {
			continue
		}
		if m, ok := rep.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	sort.Float64s(out)
	return out
}
