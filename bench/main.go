// Command bench is the repository's benchmark: it drives the Lachesis
// decision loop (core.Middleware.Step and the write chain below it)
// through one of four workloads and prints end-to-end metrics, or with
// -trace 1 per-layer metrics, as one JSON object on the last line of its
// standard output. See README.md for what is measured and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// defaultSeconds is the run length BENCHMARK.json fixes.
const defaultSeconds = 16

// environment stamps a result with where it was measured.
type environment struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`      // processors of the host
	PinnedCPU  int    `json:"pinned_cpu"` // the one processor the run is confined to; -1 if the host forbade it
	GOMAXPROCS int    `json:"gomaxprocs"`
	ScratchDir string `json:"scratch_dir"` // where file-backed stacks keep their files
}

func stampEnvironment(outDir string, pinnedCPU int) environment {
	env := environment{
		GitSHA: "unknown", GoVersion: runtime.Version(), CPUModel: "unknown",
		PinnedCPU: pinnedCPU, GOMAXPROCS: runtime.GOMAXPROCS(0), ScratchDir: outDir,
	}
	// Outside a git repository (the driver's checkout) the SHA stays unknown.
	if sha, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitSHA = strings.TrimSpace(string(sha))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			k, v, _ := strings.Cut(line, ":")
			switch strings.TrimSpace(k) {
			case "processor":
				env.NumCPU++
			case "model name":
				env.CPUModel = strings.TrimSpace(v)
			}
		}
	}
	return env
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = fs.Int64("seed", 1, "seed all inputs are generated from")
		seconds   = fs.Int("seconds", defaultSeconds, "run length; fixes the measured cycle count")
		trace     = fs.Int("trace", 0, "1: record a span at every stage boundary and print the per-layer metrics")
		outDir    = fs.String("out", filepath.Join("bench", "out"), "directory for span files and scratch files")
		selfcheck = fs.Bool("selfcheck", false, "run every workload as two interleaved sets of five and print how far the sets agree")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	pinnedCPU, err := pinToOneCPU()
	if err != nil {
		// A host that forbids it still gets its numbers, only noisier ones.
		fmt.Fprintln(os.Stderr, "bench: running unpinned:", err)
		pinnedCPU = -1
	}
	// More runnable threads than processors time-slice the loop against
	// itself, and every timing would measure the host's scheduler.
	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d processor(s) the run is confined to", procs, cpus)
	}
	if *selfcheck {
		return runSelfcheck(*seconds, *outDir)
	}
	wl, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}

	env := stampEnvironment(*outDir, pinnedCPU)
	pl := planFor(wl, *seconds)
	var out *outcome
	if *trace != 0 {
		out, err = runTraced(wl, *seed, pl, *outDir, filepath.Join(*outDir, "trace-"+wl.Name+".jsonl"))
	} else {
		out, err = runUntraced(wl, *seed, pl, *outDir)
	}
	if err != nil {
		return err
	}
	printOutcome(wl, *seed, pl, *trace != 0, env, out)
	if out.Failed > 0 {
		return errIncorrect
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.Name
	}
	return names
}

// printOutcome prints the metrics by name with units and sample counts,
// the environment stamp, and — as the last line — the result object.
func printOutcome(wl workload, seed int64, pl plan, traced bool, env environment, out *outcome) {
	blocks, how := pl.Blocks, ""
	if traced {
		blocks, how = max(pl.Blocks/2, 1), ", untraced and then traced"
	}
	fmt.Printf("workload %s  seed %d  up to %d blocks x %d cycles after %d warm-up cycles%s\n",
		wl.Name, seed, blocks, pl.BlockCycles, pl.Warmup, how)
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.Metrics[name]
		fmt.Printf("  %-28s %14.6g %-6s (n=%d)\n", name, m.Value, m.Unit, out.Samples[name])
	}
	for _, note := range out.Notes {
		fmt.Println("  note:", note)
	}
	stamp, _ := json.Marshal(env) // a struct of strings and ints always marshals
	fmt.Printf("environment %s\n", stamp)
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.Failed == 0, out.Attempted, out.Failed, out.Metrics})
	fmt.Println(string(line))
}
