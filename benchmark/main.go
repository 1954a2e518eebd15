// Command benchmark is the repository's one benchmark: it builds this
// commit's gc-webservice and gc-endpoint, runs them as child processes on
// loopback, and drives them through the real sdk.Executor. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// result is the line a run ends with: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workloads []workload
	seed      int64
	seconds   int
	trace     bool
	selfcheck bool
	workDir   string
	binDir    string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	names := fs.String("workload", "all", "comma-separated workloads to run, or all")
	fs.StringVar(names, "workloads", "all", "alias of -workload")
	fs.Int64Var(&o.seed, "seed", 1, "workload generator seed")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the measured window; task counts scale with it")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans written to <workdir>/spans-<workload>.jsonl")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced suite twice with the same seed and compare within the bounds")
	fs.StringVar(&o.workDir, "workdir", ".bench_build", "directory for built binaries, data dirs and span files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds < 1 || o.seconds > 60 {
		return o, fmt.Errorf("-seconds %d outside 1..60", o.seconds)
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	o.trace = *trace == 1
	if *names == "all" {
		o.workloads = workloads
	} else {
		for _, name := range strings.Split(*names, ",") {
			w, ok := findWorkload(name)
			if !ok {
				return o, fmt.Errorf("unknown workload %q", name)
			}
			o.workloads = append(o.workloads, w)
		}
	}
	abs, err := filepath.Abs(o.workDir)
	if err != nil {
		return o, err
	}
	o.workDir = abs
	o.binDir = filepath.Join(abs, "bin")
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	os.Exit(run(o))
}

func run(o options) int {
	// Children die with the benchmark however it ends.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllChildren()
		os.Exit(130)
	}()
	defer killAllChildren() // runs on a panic too

	buildTime, err := buildBinaries(o.binDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	buildS := buildTime.Seconds()
	fmt.Printf("path.build_s %.3f s (both binaries, not part of setup_s)\n", buildS)

	if o.selfcheck {
		return selfcheck(o)
	}
	for _, w := range o.workloads {
		var res result
		var invalid string
		if o.trace {
			res, invalid, err = runTraced(o, w, buildS)
		} else {
			res, invalid, err = runUntraced(o, w)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if invalid != "" {
			fmt.Printf("%s valid: false (%s)\n", w.name, invalid)
			return 1
		}
		defs := endToEnd
		if o.trace {
			defs = perLayer
		}
		for _, d := range defs {
			fmt.Printf("%s %s %.6g %s\n", w.name, d.name, res.Metrics[d.name].Value, d.unit)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Printf("%s\n", line)
	}
	return 0
}

// untracedOptions is the run whose numbers are the end-to-end metrics.
func untracedOptions(o options, w workload) passOptions {
	return passOptions{
		w: w, seed: o.seed, seconds: o.seconds, setups: 3, warmup: warmupTasks,
		binDir: o.binDir, workDir: o.workDir,
	}
}

func runUntraced(o options, w workload) (result, string, error) {
	p, err := runPassTimed(untracedOptions(o, w))
	if err != nil {
		return result{}, "", err
	}
	printPass(p)
	return makeResult(p, endToEnd, endToEndValues(p)), p.invalid, nil
}

func makeResult(p *pass, defs []metricDef, values map[string]float64) result {
	res := result{
		Correct: p.failed == 0 && p.correct > 0, Attempted: p.attempted, Failed: p.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res
}
