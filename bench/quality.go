package main

import (
	"fmt"
	"slices"
	"time"

	"lachesis/internal/harness"
	"lachesis/internal/spe"
	"lachesis/internal/workloads"
)

// paperConfig is one configuration of the paper's evaluation: a query at
// an input rate past the saturation knee of plain OS scheduling, where a
// wrong scheduling decision shows as a lost gain.
type paperConfig struct {
	Query string // "etl" or "linear-road"
	Rate  float64
}

// qualityPlan fixes how much the quality phase simulates.
type qualityPlan struct {
	// Reps is how many repetitions (harness.Run's rep, which perturbs the
	// seed) each scheduler runs. A gain is taken per repetition; the phase
	// reports the mean of the gains left after dropping the highest and the
	// lowest (from three repetitions up), because at some of these rates
	// Lachesis sits near its own saturation knee, and one arrival pattern in
	// five or so then gives a latency far off the others.
	Reps int
	// Warmup and Measure bound each run in virtual time.
	Warmup, Measure time.Duration
}

// paperQuality is the quality phase of a benchmark run: harness.Setup's
// defaults, 10 s of warm-up and 40 s measured.
var paperQuality = qualityPlan{Reps: 4, Warmup: 10 * time.Second, Measure: 40 * time.Second}

// quality is what the quality phase measured.
type quality struct {
	LatencyGain    float64 // mean processing latency under SchedOS / under SchedLachesisQS
	ThroughputGain float64 // throughput under SchedLachesisQS / under SchedOS
	VirtualSeconds float64 // simulated time, over all runs
	Tuples         float64 // tuples processed, over all runs
	WallSeconds    float64
}

// trimmedMean is the mean of vs without its highest and its lowest value;
// of fewer than three values, their mean.
func trimmedMean(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(max(len(s), 1))
}

// runQuality runs the paper configuration on the simulated node (simos,
// spe, simctl) under plain OS scheduling and under Lachesis with the QS
// policy, with harness.Setup's defaults (Storm flavor, OdroidXU4), all in
// virtual time. The result is exact for a seed.
func runQuality(pc paperConfig, seed int64, qp qualityPlan) (quality, error) {
	var q harness.QuerySpec
	switch pc.Query {
	case "etl":
		q = harness.QuerySpec{Build: workloads.ETL, Source: workloads.IoTSource}
	case "linear-road":
		q = harness.QuerySpec{
			Build:  func() *spe.LogicalQuery { return workloads.LinearRoad(1) },
			Source: workloads.LRSource,
		}
	default:
		return quality{}, fmt.Errorf("bench: unknown paper query %q", pc.Query)
	}
	start := time.Now()
	var out quality
	var latGains, thrGains []float64
	for rep := 0; rep < qp.Reps; rep++ {
		var lat, thr [2]float64
		for i, sched := range []harness.Scheduler{harness.SchedOS, harness.SchedLachesisQS} {
			setup := harness.Setup{
				Name: string(sched), Scheduler: sched, Seed: seed, Queries: []harness.QuerySpec{q},
				Warmup: qp.Warmup, Measure: qp.Measure,
			}
			res, err := harness.Run(setup, pc.Rate, rep)
			if err != nil {
				return quality{}, fmt.Errorf("bench: %s @ %.0f t/s under %s: %w", pc.Query, pc.Rate, sched, err)
			}
			lat[i], thr[i] = res.MeanProc.Seconds(), res.Throughput
			out.VirtualSeconds += (qp.Warmup + qp.Measure).Seconds()
			out.Tuples += res.Throughput * qp.Measure.Seconds()
		}
		if lat[1] <= 0 || thr[0] <= 0 {
			return quality{}, fmt.Errorf("bench: %s @ %.0f t/s processed nothing", pc.Query, pc.Rate)
		}
		latGains = append(latGains, lat[0]/lat[1])
		thrGains = append(thrGains, thr[1]/thr[0])
	}
	out.LatencyGain = trimmedMean(latGains)
	out.ThroughputGain = trimmedMean(thrGains)
	out.WallSeconds = time.Since(start).Seconds()
	return out, nil
}
