// Command bench is the repository's benchmark: six named workloads over
// the checker stack, time-to-verdict end to end, and — in a separate
// traced run — a per-layer ladder measured from outside by timing calls
// into each layer's public functions.  See README.md.
//
//	bash bench/run.sh --workload svc-medium --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                      # every workload, a fresh process each
//	bash bench/run.sh --repeat 10          # two groups of ten runs, compared against the bounds
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
	"strings"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	smoke    bool
	repeat   int
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run in this process (default: every workload, a fresh process each)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: job order, minted job seeds, duplicate placement, sample walks")
	fs.IntVar(&o.seconds, "seconds", 10, "window length the fixed op counts are sized for on the reference host")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics and bench/out/<workload>.trace.json")
	fs.BoolVar(&o.smoke, "smoke", false, "1 warm-up + 2 ops per workload: keeps the benchmark from rotting, measures nothing")
	fs.IntVar(&o.repeat, "repeat", 0, "run two groups of this many untraced runs per workload and compare them against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(stderr, "bench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> | --repeat <n> | --smoke")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case o.repeat > 0:
		return compareGroups(o, root, stdout, stderr)
	case o.workload == "":
		return runAll(o, stdout, stderr)
	}
	w := workloadByName(o.workload)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	res, err := runOne(w, o, root, loadGolden)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res.print(stdout)
	return res.exitCode()
}

// findRoot locates the repository root — the directory holding
// BENCHMARK.json — from the working directory of either entry point:
// bench/run.sh runs the binary at the root, `go run -C bench .` inside
// bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found: run from the repository root or from bench/")
}

// runOne runs one workload in this process.
func runOne(w *workload, o options, root string, load func() (*golden, error)) (*result, error) {
	traced := o.trace == 1
	out := filepath.Join(root, "bench", "out")
	r := &runner{
		w: w, seed: o.seed, size: w.sizing(o.seconds, traced, o.smoke), loadGolden: load,
		scratch: filepath.Join(out, fmt.Sprintf("tmp-%s-%d", w.name, os.Getpid())),
		outDir:  out,
	}
	res, err := r.run(traced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Host = host(o.seed, root)
	return res, nil
}

// exitCode is non-zero on any wrong verdict or failed operation: a
// benchmark number over wrong answers is worthless.
func (res *result) exitCode() int {
	if res.Wrong > 0 || res.Failed > 0 {
		return 1
	}
	return 0
}

// resultLine is the machine-readable last line of a run's output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes every metric by name with its unit, the counts and the
// host record, then the result line.
func (res *result) print(w io.Writer) {
	mode, specs := "untraced", endToEndSpecs
	if res.Traced {
		mode, specs = "traced", perLayerSpecs
	}
	h := res.Host
	fmt.Fprintf(w, "workload %s (%s): %d ops attempted, %d failed, %d wrong verdicts, %d latency samples\n",
		res.Workload, mode, res.Attempted, res.Failed, res.Wrong, res.Samples)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d cpu=%q %s rev=%s seed=%d\n", h.NumCPU, h.GOMAXPROCS, h.CPU, h.Go, h.Rev, h.Seed)
	for _, s := range specs {
		fmt.Fprintf(w, "  %-36s %14.6g %-6s (%s is better)  %s\n", s.name, res.Metrics[s.name].Value, s.unit, s.better, s.note)
	}
	for i, n := range res.Notes {
		if i == 10 {
			fmt.Fprintf(w, "  ... %d more\n", len(res.Notes)-i)
			break
		}
		fmt.Fprintln(w, "  note:", n)
	}
	line, _ := json.Marshal(resultLine{Correct: res.Wrong == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// runChild runs one workload in a fresh process of this same binary, so
// peak memory and warm-up state belong to that workload alone, and
// returns its parsed result line.  The child's report goes to stdout.
func runChild(o options, name string, stdout, stderr io.Writer) (*resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", name, "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(o.trace)}
	if o.smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(exe, args...)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, stdout)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", name, err)
	}
	if runErr != nil {
		return &line, fmt.Errorf("%s: %w", name, runErr)
	}
	return &line, nil
}

// runAll runs every workload, one fresh process each, and exits
// non-zero if any of them did.
func runAll(o options, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range workloads() {
		if _, err := runChild(o, w.name, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
		}
	}
	return code
}

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// compareGroups is the benchmark checking itself: two groups of
// o.repeat untraced runs of the same code per workload (seeds seed,
// seed+1, ...; the groups alternate), then for every workload ×
// end-to-end metric the spread of each group (interquartile distance ÷
// median, as the acceptance driver computes it) and how much worse the
// second group's median is than the first's, both against the metric's
// bound from BENCHMARK.json, followed by every run's value.  A
// difference beyond the bound exits non-zero; a spread beyond the bound
// is reported as unresolved, never as unchanged.
func compareGroups(o options, root string, stdout, stderr io.Writer) int {
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	o.trace = 0
	names := make([]string, 0, len(workloads()))
	for _, w := range workloads() {
		if o.workload == "" || o.workload == w.name {
			names = append(names, w.name)
		}
	}
	code := 0
	type cell struct{ a, b []float64 }
	table := make(map[string]map[string]*cell)
	for _, name := range names {
		table[name] = make(map[string]*cell)
		for i := 0; i < o.repeat; i++ {
			for g := 0; g < 2; g++ {
				run := o
				run.seed = o.seed + uint64(i)
				line, err := runChild(run, name, io.Discard, stderr)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					code = 1
				}
				if line == nil {
					continue
				}
				for m, v := range line.Metrics {
					c := table[name][m]
					if c == nil {
						c = &cell{}
						table[name][m] = c
					}
					if g == 0 {
						c.a = append(c.a, v.Value)
					} else {
						c.b = append(c.b, v.Value)
					}
				}
			}
		}
	}
	fmt.Fprintf(stdout, "%-14s %-14s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "spreadA", "spreadB", "B worse", "bound", "verdict")
	for _, name := range names {
		for _, m := range bf.EndToEnd {
			c := table[name][m.Name]
			if c == nil || len(c.a) == 0 || len(c.b) == 0 {
				fmt.Fprintf(stdout, "%-14s %-14s missing\n", name, m.Name)
				code = 1
				continue
			}
			ma, mb := median(c.a), median(c.b)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(c.a), spread(c.b)
			verdict := "within"
			switch {
			case worse > m.Bound:
				verdict = "OUTSIDE"
				code = 1
			case (sa > m.Bound || sb > m.Bound) && m.Name != "setup_s":
				verdict = "unresolved (spread exceeds bound)"
			}
			fmt.Fprintf(stdout, "%-14s %-14s %12.6g %12.6g %7.1f%% %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				name, m.Name, ma, mb, 100*sa, 100*sb, 100*worse, 100*m.Bound, verdict)
			fmt.Fprintf(stdout, "    A: %.5g\n    B: %.5g\n", c.a, c.b)
		}
	}
	return code
}
