// Command lachesis-bench regenerates the tables and figures of the
// paper's evaluation (§6) on the simulated testbed.
//
// Usage:
//
//	lachesis-bench -list
//	lachesis-bench -experiment fig9
//	lachesis-bench -experiment all -scale full
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"lachesis/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lachesis-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lachesis-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	all := harness.All()
	ids := make([]string, 0, len(all))
	for _, e := range all {
		ids = append(ids, e.ID)
	}
	var (
		experiment = fs.String("experiment", "", "experiment id ("+strings.Join(ids, ", ")+", or 'all')")
		scaleName  = fs.String("scale", "quick", "quick or full")
		list       = fs.Bool("list", false, "list experiments")
		verbose    = fs.Bool("v", false, "print progress")
		csvDir     = fs.String("csv", "", "also write aggregated series as CSV files into this directory")
		outDir     = fs.String("out", ".", "directory for machine-readable artifacts (BENCH_*.json, audit JSONL)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range all {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *experiment == "" {
		fs.Usage()
		return fmt.Errorf("missing -experiment (or -list)")
	}
	var sc harness.Scale
	switch *scaleName {
	case "quick":
		sc = harness.QuickScale
	case "full":
		sc = harness.FullScale
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	if *verbose {
		sc.Progress = func(msg string) { fmt.Fprintln(stderr, "  ...", msg) }
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		sc.CSVDir = *csvDir
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		sc.ArtifactDir = *outDir
	}

	var exps []harness.Experiment
	if *experiment == "all" {
		exps = all
	} else {
		e, ok := harness.ByID(*experiment)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *experiment)
		}
		exps = []harness.Experiment{e}
	}
	for _, e := range exps {
		start := time.Now()
		fmt.Fprintf(stderr, "== %s: %s\n", e.ID, e.Title)
		if err := e.Run(stdout, sc); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(stderr, "== %s done in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
