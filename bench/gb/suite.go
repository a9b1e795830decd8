package gb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Stat is one end-to-end metric of one workload across the runs of a suite.
type Stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`      // runs
	Inner  int       `json:"inner"`  // samples behind each run's value
	Values []float64 `json:"values"` // one per run, in run order
}

// Spread is the metric's own run-to-run spread: the distance between its
// quartiles as a share of its median.
func (s Stat) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// LayerStat is one per-layer metric of one workload's traced run.
type LayerStat struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	NA    bool    `json:"na,omitempty"`
}

// WorkloadResult is everything a suite measured on one workload.
type WorkloadResult struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string]Stat      `json:"end_to_end"`
	PerLayer  map[string]LayerStat `json:"per_layer"`
}

// File is a result file: one suite of runs of one commit.
type File struct {
	Label      string                    `json:"label"`
	Commit     string                    `json:"commit"`
	Go         string                    `json:"go"`
	NProc      int                       `json:"nproc"`
	GOMAXPROCS int                       `json:"gomaxprocs"`
	Seconds    float64                   `json:"seconds"`
	Seeds      []int64                   `json:"seeds"`
	Workloads  map[string]WorkloadResult `json:"workloads"`
}

// fullLine is the child's last line in suite mode: the driver line plus the
// sample counts and not-applicable marks.
type fullLine struct {
	Result
	Samples map[string]int  `json:"samples"`
	NA      map[string]bool `json:"na"`
}

// FullLine renders the suite-mode result line.
func (r *Result) FullLine() string {
	b, err := json.Marshal(fullLine{Result: *r, Samples: r.Samples, NA: r.NA})
	if err != nil {
		panic(err) // unreachable: plain data
	}
	return string(b)
}

// SuiteOptions selects a suite: every workload, each in its own child
// process per run (so peak_rss_mb is the workload's own), untraced once per
// seed and traced once at the first seed.
type SuiteOptions struct {
	Exe       string // this binary
	Label     string
	Seeds     []int64
	Seconds   float64
	Tiny      bool
	Workloads []string // empty = all
	Log       io.Writer
}

// RunSuite runs the suite and returns its result file. The error reports a
// child that could not run; failed solves are in the file.
func RunSuite(o SuiteOptions) (*File, error) {
	f := &File{
		Label: o.Label, Commit: gitCommit(), Go: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seconds: o.Seconds, Seeds: o.Seeds,
		Workloads: map[string]WorkloadResult{},
	}
	names := o.Workloads
	if len(names) == 0 {
		for _, w := range Workloads {
			names = append(names, w.Name)
		}
	}
	for _, name := range names {
		wr := WorkloadResult{EndToEnd: map[string]Stat{}, PerLayer: map[string]LayerStat{}}
		vals := map[string][]float64{}
		inner := map[string]int{}
		for _, seed := range o.Seeds {
			line, err := runChild(o, name, seed, false)
			if err != nil {
				return nil, err
			}
			wr.Attempted += line.Attempted
			wr.Failed += line.Failed
			for k, v := range line.Metrics {
				vals[k] = append(vals[k], v.Value)
				inner[k] = line.Samples[k]
			}
		}
		for _, m := range EndToEnd {
			wr.EndToEnd[m.Name] = newStat(m.Unit, vals[m.Name], inner[m.Name])
		}
		line, err := runChild(o, name, o.Seeds[0], true)
		if err != nil {
			return nil, err
		}
		wr.Attempted += line.Attempted
		wr.Failed += line.Failed
		for _, m := range PerLayer {
			wr.PerLayer[m.Name] = LayerStat{Unit: m.Unit, Value: line.Metrics[m.Name].Value, N: line.Samples[m.Name], NA: line.NA[m.Name]}
		}
		f.Workloads[name] = wr
		fmt.Fprintf(o.Log, "%-16s %d runs + 1 traced: solve_wall_s %.4g s (spread %.1f%%), %d of %d solves failed\n",
			name, len(o.Seeds), wr.EndToEnd["solve_wall_s"].Median, 100*wr.EndToEnd["solve_wall_s"].Spread(), wr.Failed, wr.Attempted)
	}
	return f, nil
}

func runChild(o SuiteOptions, workload string, seed int64, trace bool) (*fullLine, error) {
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(o.Seconds, 'g', -1, 64), "--full"}
	if trace {
		args = append(args, "--trace", "1")
	}
	if o.Tiny {
		args = append(args, "--tiny")
	}
	cmd := exec.Command(o.Exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line fullLine
	if jerr := json.Unmarshal(lines[len(lines)-1], &line); jerr != nil {
		return nil, fmt.Errorf("%s seed %d: no result line (%v): %w", workload, seed, err, jerr)
	}
	// A child that printed its line but exited non-zero had failed solves;
	// those are recorded, not fatal.
	return &line, nil
}

func newStat(unit string, v []float64, inner int) Stat {
	s := Stat{Unit: unit, Median: median(v), N: len(v), Inner: inner, Values: v}
	s.Q1, s.Q3 = quartiles(v)
	return s
}

// quartiles are the first and third of Python's statistics.quantiles(v, n=4)
// (the exclusive method), which is what the driver computes.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := max(1, min(k*(n+1)/4, n-1))
		delta := float64(k*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// WriteFile writes a result file as indented JSON.
func (f *File) WriteFile(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile reads a result file.
func ReadFile(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Trend prints, for every workload and end-to-end metric, the median in each
// result file of dir in file-name order: the kept trajectory.
func Trend(w io.Writer, dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return fmt.Errorf("no result files in %s", dir)
	}
	files := make([]*File, len(paths))
	fmt.Fprintf(w, "%-16s %-26s", "workload", "metric")
	for i, p := range paths {
		if files[i], err = ReadFile(p); err != nil {
			return err
		}
		fmt.Fprintf(w, " %12s", strings.TrimSuffix(filepath.Base(p), ".json"))
	}
	fmt.Fprintln(w)
	for _, wl := range Workloads {
		for _, m := range EndToEnd {
			fmt.Fprintf(w, "%-16s %-26s", wl.Name, m.Name)
			for _, f := range files {
				if st, ok := f.Workloads[wl.Name].EndToEnd[m.Name]; ok {
					fmt.Fprintf(w, " %12.5g", st.Median)
				} else {
					fmt.Fprintf(w, " %12s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
