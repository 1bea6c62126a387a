package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// selfcheckRuns is the size of each of the two sets of runs.
const selfcheckRuns = 5

// quartiles returns the first quartile, median and third quartile of vs by
// the exclusive method (Python's statistics.quantiles(vs, n=4)).
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// runSelfcheck runs every workload as two interleaved sets of runs of the
// same binary, every run in a process of its own and on a seed of its own,
// and prints per end-to-end metric the two set medians, their relative
// gap, each set's quartiles and the spread of all runs together (distance
// between the quartiles over the median): the numbers the bounds in
// BENCHMARK.json are set from.
func runSelfcheck(seconds int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("selfcheck: 2 interleaved sets of %d runs per workload, %d s each, seeds 1-%d\n",
		selfcheckRuns, seconds, 2*selfcheckRuns)
	fmt.Println("| workload | metric | median A | median B | gap | quartiles A | quartiles B | spread of all |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, wl := range allWorkloads {
		sets := [2]map[string][]float64{{}, {}}
		var units map[string]string
		for i := 0; i < 2*selfcheckRuns; i++ {
			cmd := exec.Command(self, "-workload", wl.Name, "-seed", strconv.Itoa(i+1),
				"-seconds", strconv.Itoa(seconds), "-out", outDir)
			cmd.Stderr = os.Stderr
			raw, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.Name, i+1, err)
			}
			lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
			var res struct {
				Correct bool              `json:"correct"`
				Metrics map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", wl.Name, i+1, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %w", wl.Name, i+1, errIncorrect)
			}
			units = map[string]string{}
			for name, m := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
				units[name] = m.Unit
			}
		}
		names := make([]string, 0, len(units))
		for name := range units {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			a, b := sets[0][name], sets[1][name]
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			q1, q2, q3 := quartiles(slices.Concat(a, b))
			fmt.Printf("| %s | %s (%s) | %.5g | %.5g | %.2f%% | %.5g – %.5g | %.5g – %.5g | %.2f%% |\n",
				wl.Name, name, units[name], a2, b2, 100*ratio(math.Abs(a2-b2), min(a2, b2)),
				a1, a3, b1, b3, 100*ratio(q3-q1, q2))
		}
	}
	return nil
}
