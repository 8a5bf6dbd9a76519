// Command fpccbench is fpcc's benchmark. It runs fixed slices of the
// experiment registry (workloads) through Experiment.Run and reports
// end-to-end metrics per pass, or, traced, per-layer metrics from
// spans around experiment calls and engine probes. See README.md.
//
//	fpccbench -workload fluid-dde -seed 1 -seconds 20 -trace 0
//	fpccbench -workload fluid-dde -seed 1 -trace 1
//	fpccbench compare a.json b.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"fpcc/internal/experiments"
)

const (
	// minPasses is the least number of passes in an untraced run: the
	// first pass is the correctness reference of the ones after it, and
	// the median of three rejects one pass a burst of host load slowed.
	minPasses = 3
	// minSetups is the least number of set-up samples behind setup_s.
	minSetups = 7
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultSet is a result with what produced it, kept on disk so two
// runs can be compared (fpccbench compare).
type resultSet struct {
	Host     host         `json:"host"`
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Trace    bool         `json:"trace"`
	Passes   []passResult `json:"passes"`
	Failures []string     `json:"failures,omitempty"`
	Result   result       `json:"result"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fpccbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout)
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	fs := flag.NewFlagSet("fpccbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed of the experiment order and the probe inputs")
	seconds := fs.Int("seconds", 30, "measuring time of an untraced run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result sets")
	child := fs.String("child", "", "run one pass or the probes as a child process (JSON spec; internal)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *child != "" {
		return runChild(*child, stdout)
	}
	if err := checkCoverage(workloads, excluded, experiments.All()); err != nil {
		return fmt.Errorf("registry coverage: %w", err)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	h := fingerprint()
	if err := h.checkProcs(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host: %d CPUs, GOMAXPROCS %d, %s, %s %s/%s\n", h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.GOOS, h.GOARCH)
	var set resultSet
	switch *trace {
	case 0:
		if *seconds < 1 {
			return fmt.Errorf("-seconds %d: need at least 1", *seconds)
		}
		set, err = measure(w, *seed, time.Duration(*seconds)*time.Second, stdout)
	case 1:
		set, err = traced(w, *seed, stdout)
	default:
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		return err
	}
	set.Host, set.Workload, set.Seed, set.Trace = h, w.Name, *seed, *trace == 1
	for _, f := range set.Failures {
		fmt.Fprintln(stdout, "FAILED:", f)
	}
	if err := save(*out, set); err != nil {
		return err
	}
	line, err := json.Marshal(set.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runChild is the child-process side: one pass or the probes, with
// the result as JSON on stdout.
func runChild(specJSON string, stdout io.Writer) error {
	var spec passSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return fmt.Errorf("child spec: %w", err)
	}
	var res passResult
	var err error
	if spec.Kind == "probes" {
		res, err = runProbes(spec, false)
	} else {
		var w workload
		if w, err = workloadByName(spec.Workload); err == nil {
			res, err = runPass(spec, w.IDs, nil)
		}
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// spawn runs spec in a fresh process of this binary, so every pass
// starts from the same heap and its peak RSS is its own.
func spawn(spec passSpec) (passResult, error) {
	self, err := os.Executable()
	if err != nil {
		return passResult{}, err
	}
	js, err := json.Marshal(spec)
	if err != nil {
		return passResult{}, err
	}
	cmd := exec.Command(self, "-child", string(js))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	started := time.Now().UnixNano()
	if err := cmd.Run(); err != nil {
		return passResult{}, fmt.Errorf("%s %s pass %d: %v: %s", spec.Kind, spec.Workload, spec.Index, err, strings.TrimSpace(errOut.String()))
	}
	var res passResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return passResult{}, fmt.Errorf("%s %s pass %d: decoding result: %w", spec.Kind, spec.Workload, spec.Index, err)
	}
	res.SetupSeconds = float64(res.FirstRunUnixNano-started) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
	}
	return res, nil
}

// measure is the untraced run: passes of w at its shape, each in its
// own process, for the measuring time.
func measure(w workload, seed uint64, seconds time.Duration, stdout io.Writer) (resultSet, error) {
	var set resultSet
	spec := passSpec{Kind: "pass", Workload: w.Name, Seed: seed, Outer: w.outer(), Inner: w.Inner}
	// A pass starts only if one more of average length still ends
	// within the measuring time.
	start := time.Now()
	for spec.Index = 0; spec.Index < minPasses || time.Since(start)*time.Duration(spec.Index+1)/time.Duration(spec.Index) <= seconds; spec.Index++ {
		p, err := spawn(spec)
		if err != nil {
			return set, err
		}
		set.Passes = append(set.Passes, p)
	}
	var wall, cpu, mallocs, alloc, rss, setup []float64
	for _, p := range set.Passes {
		wall = append(wall, p.Res.WallSeconds)
		cpu = append(cpu, p.Res.CPUSeconds)
		mallocs = append(mallocs, float64(p.Res.Mallocs))
		alloc = append(alloc, float64(p.Res.AllocBytes)/1e6)
		rss = append(rss, p.PeakRSSMB)
		setup = append(setup, p.SetupSeconds)
	}
	// Set-up is milliseconds, so top it up with processes that stop
	// right before the first Run.
	spec.Kind = "setup"
	for ; len(setup) < minSetups; spec.Index++ {
		p, err := spawn(spec)
		if err != nil {
			return set, err
		}
		setup = append(setup, p.SetupSeconds)
	}
	attempted, failed, why := tally(set.Passes, map[string]string{})
	set.Failures = why
	set.Result = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	fmt.Fprintf(stdout, "workload %s: seed %d, %d passes at outer %d, inner %s; per pass\n", w.Name, seed, len(set.Passes), spec.Outer, innerLabel(w.Inner))
	samples := map[string][]float64{"wall_s": wall, "cpu_s": cpu, "mallocs": mallocs, "alloc_mb": alloc, "peak_rss_mb": rss, "setup_s": setup}
	for _, name := range endToEndMetrics {
		xs := samples[name]
		v, stat := median(xs), "median"
		if name == "peak_rss_mb" {
			// Go's concurrent GC adds a timing-dependent overshoot to a
			// pass's peak (up to ~30% on fluid-dde, even for one fixed
			// experiment order); the lowest peak tracks what the pass
			// needs.
			v, stat = slices.Min(xs), "lowest"
		}
		set.Result.Metrics[name] = metric{v, unitOf(name)}
		fmt.Fprintf(stdout, "  %-12s %14.6g %-5s %s of n=%d (min %.6g, max %.6g)\n", name, v, unitOf(name), stat, len(xs), slices.Min(xs), slices.Max(xs))
	}
	fmt.Fprintf(stdout, "  %-12s %14.6g       %d of %d calls\n", "failed_frac", float64(failed)/float64(attempted), failed, attempted)
	return set, nil
}

// tally counts experiment calls and failures. ref maps an ID to its
// reference digest and is filled from the first call seen for the ID,
// so passes must come in order, reference pass first. A call fails
// when Run returned an error, a finding raised an alarm, or its table
// differs from the reference.
func tally(passes []passResult, ref map[string]string) (attempted, failed int, why []string) {
	for _, p := range passes {
		for _, c := range p.Calls {
			attempted++
			want, seen := ref[c.ID]
			if !seen {
				ref[c.ID] = c.Digest
			}
			var reason string
			switch {
			case c.Err != "":
				reason = "error: " + c.Err
			case c.Alarm != "":
				reason = "alarm: " + c.Alarm
			case seen && c.Digest != want:
				reason = "table differs from the reference pass"
			default:
				continue
			}
			failed++
			why = append(why, fmt.Sprintf("%s in %s pass %d (outer %d, inner %s, traced %v): %s", c.ID, p.Spec.Workload, p.Spec.Index, p.Spec.Outer, innerLabel(p.Spec.Inner), p.Spec.Traced, reason))
		}
	}
	return attempted, failed, why
}

func innerLabel(inner int) string {
	if inner <= 0 {
		return "negotiated"
	}
	return fmt.Sprint(inner)
}

// unitOf derives a metric's unit from its name's suffix, the naming
// rule BENCHMARK.json follows.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_ns"), strings.Contains(name, "_ns_"):
		return "ns"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	default:
		return "count"
	}
}

// save writes the result set as <out>/<workload>-seed<n>-trace<0|1>.json.
func save(out string, set resultSet) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	js, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if set.Trace {
		trace = 1
	}
	return os.WriteFile(filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d.json", set.Workload, set.Seed, trace)), js, 0o644)
}

// compare prints the metric ratios of two saved result sets, and
// refuses when they come from different hosts.
func compare(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: fpccbench compare <before.json> <after.json>")
	}
	var sets [2]resultSet
	for i, path := range args {
		js, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(js, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	a, b := sets[0], sets[1]
	if a.Host != b.Host {
		return fmt.Errorf("host fingerprints differ, refusing to compare:\n  %s: %+v\n  %s: %+v", args[0], a.Host, args[1], b.Host)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("%s is %s trace=%v, %s is %s trace=%v", args[0], a.Workload, a.Trace, args[1], b.Workload, b.Trace)
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma, mb := a.Result.Metrics[n], b.Result.Metrics[n]
		fmt.Fprintf(stdout, "%-40s %14.6g %14.6g %-5s  after/before %.4f\n", n, ma.Value, mb.Value, ma.Unit, mb.Value/ma.Value)
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
