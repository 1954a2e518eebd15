// Command gc-bench regenerates the paper's figures, listings, and
// quantitative claims (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for recorded outputs).
//
// Usage:
//
//	gc-bench -exp fig2            # one experiment
//	gc-bench -exp all             # everything
//	gc-bench -list                # list experiment IDs
//
// Performance is measured by the repository benchmark (go run ./benchmark),
// not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"globuscompute/internal/experiments"
)

type runner struct {
	id, desc string
	run      func() (experiments.Report, error)
}

func main() {
	var (
		exp    = flag.String("exp", "", "experiment ID (or 'all')")
		list   = flag.Bool("list", false, "list experiment IDs")
		n      = flag.Int("n", 200, "task count for load experiments")
		seed   = flag.Int64("seed", 42, "workload seed")
		full   = flag.Bool("full", false, "print full per-day series for fig2")
		csvDir = flag.String("csv", "", "also write each report's rows to <dir>/<id>.csv")
	)
	flag.Parse()

	runners := []runner{
		{"fig2", "task invocations per day (Fig. 2)", func() (experiments.Report, error) {
			return experiments.Fig2(*seed, *full), nil
		}},
		{"fig1", "multi-user endpoint flow trace (Fig. 1)", experiments.Fig1},
		{"usage", "deployment statistics (§VI)", func() (experiments.Report, error) {
			return experiments.Usage(*seed)
		}},
		{"streaming", "executor streaming vs polling (T1)", func() (experiments.Report, error) {
			return experiments.Streaming(*n)
		}},
		{"batching", "request batching (T2)", func() (experiments.Report, error) {
			return experiments.Batching(*n)
		}},
		{"walltime", "ShellFunction walltime, Listing 3 (T3)", experiments.Walltime},
		{"sandbox", "sandbox isolation (T4)", func() (experiments.Report, error) {
			return experiments.Sandbox(8)
		}},
		{"mpi-hostname", "MPIFunction hostname, Listings 6/7", experiments.MPIHostname},
		{"mpi-prefix", "launcher prefix resolution", func() (experiments.Report, error) {
			return experiments.BuildPrefixDemo(), nil
		}},
		{"mpi-packing", "concurrent MPI apps in one batch job (T5)", func() (experiments.Report, error) {
			return experiments.MPIPacking(24, 8, *seed)
		}},
		{"mpi-strategies", "partitioner strategy ablation (A2)", func() (experiments.Report, error) {
			return experiments.MPIStrategies(24, 8, *seed)
		}},
		{"mep-reuse", "user endpoint reuse by config hash (T6)", func() (experiments.Report, error) {
			return experiments.MEPReuse(3)
		}},
		{"elasticity", "provider elasticity (A3)", func() (experiments.Report, error) {
			return experiments.Elasticity(48)
		}},
		{"proxystore", "pass-by-reference vs cloud payloads (T8)", func() (experiments.Report, error) {
			return experiments.ProxyStore(nil)
		}},
		{"fleet", "Delta/GreenFaaS routing over a heterogeneous fleet (§VI)", func() (experiments.Report, error) {
			return experiments.Fleet(10)
		}},
		{"containers", "containerized execution: cold pull vs warm reuse", func() (experiments.Report, error) {
			return experiments.Containers(6)
		}},
		{"latency", "end-to-end task latency breakdown", func() (experiments.Report, error) {
			return experiments.Latency(*n)
		}},
		{"fairshare", "batch fairshare ablation on the scheduler substrate", func() (experiments.Report, error) {
			return experiments.Fairshare(12)
		}},
	}

	if *list {
		for _, r := range runners {
			fmt.Printf("%-15s %s\n", r.id, r.desc)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "gc-bench: -exp required (use -list to see experiments)")
		os.Exit(2)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "gc-bench: %v\n", err)
			os.Exit(1)
		}
	}
	failed := 0
	for _, r := range runners {
		if *exp != "all" && *exp != r.id {
			continue
		}
		report, err := r.run()
		fmt.Print(report.String())
		if err != nil {
			fmt.Fprintf(os.Stderr, "gc-bench: %s: %v\n", r.id, err)
			failed++
		}
		if *csvDir != "" && err == nil {
			if werr := writeCSV(*csvDir, report); werr != nil {
				fmt.Fprintf(os.Stderr, "gc-bench: csv %s: %v\n", r.id, werr)
			}
		}
		fmt.Println()
		if *exp == r.id {
			if failed > 0 {
				os.Exit(1)
			}
			return
		}
	}
	if *exp != "all" {
		fmt.Fprintf(os.Stderr, "gc-bench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// writeCSV stores a report's header and rows as <dir>/<id>.csv.
func writeCSV(dir string, r experiments.Report) error {
	var b strings.Builder
	if r.Header != "" {
		b.WriteString(r.Header)
		b.WriteByte('\n')
	}
	for _, row := range r.Rows {
		b.WriteString(row)
		b.WriteByte('\n')
	}
	return os.WriteFile(filepath.Join(dir, r.ID+".csv"), []byte(b.String()), 0o644)
}
