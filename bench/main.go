// Command bench is the repository's benchmark: four workloads that
// stress different layers of the simulator, end-to-end metrics of the
// simulator's host cost and of the simulated latency, per-layer counts,
// a traced run, and micro-probes of each layer. See README.md.
//
//	bash bench/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1]
//
// Each repetition of a workload runs in a child process of its own (the
// command re-executes itself), one at a time and single-threaded: one
// full-scale repetition for the simulated metrics, then short timing
// repetitions for host time. Without -workload every workload runs in
// turn. The output ends with one JSON line per workload: the end-to-end
// metrics, or with -trace 1 the per-layer ones.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTimingReps is the fewest timing repetitions a run makes.
const minTimingReps = 5

// budget bounds one invocation's wall time.
const budget = 170 * time.Second

// spansDir holds the host-time span files, relative to the repository
// root that run.sh runs the command from.
const spansDir = "bench/out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all, in turn)")
	seed := fs.Uint64("seed", 2018, "workload seed")
	seconds := fs.Float64("seconds", 0, "wall seconds of repetitions per workload; at least 5 timing repetitions run")
	trace := fs.Bool("trace", false, "add the traced run and the layer probes; the JSON line carries the per-layer metrics")
	child := fs.String("child", "", "internal: run one repetition (full, timing, traced) or the probes, print it as JSON")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *child != "" {
		return runChild(*child, *name, *seed, stdout, stderr)
	}

	ws := workloads
	if *name != "" {
		w, ok := lookup(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		ws = []workload{w}
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	var probes map[string]float64
	if *trace {
		var err error
		if probes, err = spawnProbes(ctx, *seed, stderr); err != nil {
			fmt.Fprintf(stderr, "bench: probes: %v\n", err)
			return 1
		}
	}
	failed := false
	for _, w := range ws {
		r, err := runWorkload(ctx, w, *seed, *seconds, *trace, probes, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if err := writeSpans(r); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		r.writeText(stdout, *trace)
		line, err := json.Marshal(r.record(*trace))
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		failed = failed || !r.ok()
	}
	if failed {
		return 1
	}
	return 0
}

// normalizeArgs joins "-trace 0" and "-trace 1" into "-trace=0" and
// "-trace=1": the flag package reads a bare boolean flag as true and
// would leave the digit behind as an argument.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// runWorkload runs w's full-scale repetition, then timing repetitions
// for seconds of wall time in all (at least minTimingReps of them), then
// the traced repetition if asked.
func runWorkload(ctx context.Context, w workload, seed uint64, seconds float64, trace bool,
	probes map[string]float64, stderr io.Writer) (*report, error) {
	start := time.Now() //afalint:allow wallclock -- host-time measurement
	full, err := spawnRep(ctx, "full", w, seed, stderr)
	if err != nil {
		return nil, err
	}
	var timing []rep
	for len(timing) < minTimingReps || time.Since(start).Seconds() < seconds { //afalint:allow wallclock -- host-time measurement
		r, err := spawnRep(ctx, "timing", w, seed, stderr)
		if err != nil {
			return nil, err
		}
		timing = append(timing, r)
	}
	var traced *rep
	if trace {
		r, err := spawnRep(ctx, "traced", w, seed, stderr)
		if err != nil {
			return nil, err
		}
		traced = &r
	}
	return summarize(w, seed, full, timing, traced, probes), nil
}

// spawn re-executes this command with args and returns its standard
// output and peak resident set.
func spawn(ctx context.Context, stderr io.Writer, args ...string) ([]byte, int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	var rssKB int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssKB = ru.Maxrss // kilobytes on Linux
	}
	return out.Bytes(), rssKB, nil
}

func spawnRep(ctx context.Context, kind string, w workload, seed uint64, stderr io.Writer) (rep, error) {
	out, rssKB, err := spawn(ctx, stderr, "-child", kind, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10))
	if err != nil {
		return rep{}, err
	}
	var r rep
	if err := json.Unmarshal(out, &r); err != nil {
		return rep{}, fmt.Errorf("child output: %w", err)
	}
	r.Host.RSSPeakKB = rssKB
	return r, nil
}

func spawnProbes(ctx context.Context, seed uint64, stderr io.Writer) (map[string]float64, error) {
	out, _, err := spawn(ctx, stderr, "-child", "probes", "-seed", strconv.FormatUint(seed, 10))
	if err != nil {
		return nil, err
	}
	var probes map[string]float64
	if err := json.Unmarshal(out, &probes); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return probes, nil
}

// runChild is the child side: one repetition, or the probes, as JSON.
// It runs on one OS thread at a time, so the garbage collector's work
// is charged to the timed call instead of overlapping it on another CPU.
func runChild(kind, name string, seed uint64, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(1)
	var v any
	switch kind {
	case "full", "timing", "traced":
		w, ok := lookup(name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		sc := w.full
		if kind == "timing" {
			sc = w.timing
		}
		r := runRep(w, seed, sc, kind == "traced")
		r.Kind = kind
		v = r
	case "probes":
		v = runProbes(seed, 1)
	default:
		fmt.Fprintf(stderr, "bench: unknown child kind %q\n", kind)
		return 2
	}
	if err := json.NewEncoder(stdout).Encode(v); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// spanRecord is one host-time span of the span file.
type spanRecord struct {
	Rep     int     `json:"rep"`
	Kind    string  `json:"kind"`
	Name    string  `json:"name"`
	StartS  float64 `json:"start_s"`
	EndS    float64 `json:"end_s"`
	Seconds float64 `json:"seconds"`
}

// writeSpans writes every repetition's host-time spans (span.setup_s,
// span.run_s, span.collect_s) to spansDir/<workload>.spans.json.
func writeSpans(r *report) error {
	var recs []spanRecord
	for i, rp := range r.all() {
		for _, s := range rp.Spans {
			recs = append(recs, spanRecord{
				Rep: i, Kind: rp.Kind, Name: "span." + s.Name + "_s",
				StartS: float64(s.StartNs) / 1e9, EndS: float64(s.EndNs) / 1e9,
				Seconds: float64(s.EndNs-s.StartNs) / 1e9,
			})
		}
	}
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spansDir, r.Workload.name+".spans.json")
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
