// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed time, checks every answer against a cache-free oracle, and prints
// each metric by name with its unit; the last line of standard output is
// the run's JSON result. See README.md for the workloads and metrics.
//
// Usage:
//
//	perfbench --workload aids-zipf|pdbs-uni|served-mixed --seed N
//	          --seconds S --trace 0|1 [--serve-bin PATH] [--out DIR]
//	          [--steady RUNS]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// comparison and prints the per-layer metrics. --steady RUNS re-runs the
// workload RUNS times with seeds N, N+1, ... in child processes and prints
// each metric's median, quartiles and spread. The exit status is non-zero
// when any answer was wrong or any operation failed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload: aids-zipf | pdbs-uni | served-mixed")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		serveBin = flag.String("serve-bin", ".bench_build/igqserve", "igqserve binary built from the commit under test")
		out      = flag.String("out", ".bench_build", "directory for work files and span dumps")
		steady   = flag.Int("steady", 0, "re-run the workload this many times with successive seeds and print spreads")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("perfbench: --seconds must be >= 1 and --trace 0 or 1")
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatalf("perfbench: %v", err)
	}
	if *steady > 0 {
		base := []string{"--workload", w.name, "--seconds", strconv.Itoa(*seconds),
			"--trace", strconv.Itoa(*trace), "--serve-bin", *serveBin, "--out", *out}
		if err := steadiness(*steady, base, *seed); err != nil {
			fatalf("perfbench: %v", err)
		}
		return
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *serveBin, *out)
	if err != nil {
		fatalf("perfbench: %v", err)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload run and returns its result.
func run(w workload, seed int64, dur time.Duration, traced bool, serveBin, out string) (result, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)

	in := w.inputs(seed)
	var rep *report
	var tracers []*tracer
	switch {
	case w.served:
		rep, tracers, err = runServed(in, dur, traced, serveBin, work)
	case traced:
		rep, tracers, err = runEngineTraced(in, dur, work)
	default:
		rep, err = runEngine(in, dur, nil)
	}
	if err != nil {
		return result{}, err
	}
	if traced {
		rep.set("fail_frac", float64(rep.failed)/float64(max(rep.attempted, 1)))
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
		if err := writeSpans(path, tracers); err != nil {
			return result{}, err
		}
	}
	for _, p := range rep.problems {
		fmt.Println("FAIL:", p)
	}
	return rep.result(traced, w.served)
}

// steadiness re-runs this command's workload in child processes with
// successive seeds and prints, per metric, the median, the quartiles and
// the spread (interquartile distance over median) that BENCHMARK.json's
// bounds are checked against.
func steadiness(runs int, args []string, seed int64) error {
	values := map[string][]float64{}
	units := map[string]string{}
	invalid := 0
	for i := range runs {
		s := seed + int64(i)
		cmd := exec.Command(os.Args[0], append(args, "--seed", strconv.FormatInt(s, 10))...)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w\n%s", s, err, b)
		}
		if bytes.Contains(b, []byte("\nINVALID")) || bytes.HasPrefix(b, []byte("INVALID")) {
			invalid++
			fmt.Printf("seed %d: INVALID run (the load generator fell behind)\n", s)
		}
		var res result
		if err := json.Unmarshal(lastLine(b), &res); err != nil {
			return fmt.Errorf("seed %d: parsing result: %w", s, err)
		}
		for n, m := range res.Metrics {
			values[n] = append(values[n], m.Value)
			units[n] = m.Unit
		}
		fmt.Printf("seed %d: %s\n", s, lastLine(b))
	}
	fmt.Printf("%-32s %12s %12s %12s %8s  (%d runs, %d invalid)\n", "metric", "median", "q1", "q3", "spread", runs, invalid)
	for _, m := range append(append(append([]metricDef{}, endToEnd...), perLayer...), servedLayer...) {
		xs, ok := values[m.name]
		if !ok {
			continue
		}
		q1, q3 := quartiles(xs)
		med := median(append([]float64(nil), xs...))
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-32s %12.6g %12.6g %12.6g %8.4f %s\n", m.name, med, q1, q3, spread, units[m.name])
	}
	return nil
}

func lastLine(b []byte) []byte {
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last []byte
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
