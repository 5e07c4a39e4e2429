package main

import (
	"encoding/json"
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile is the linearly interpolated q-quantile of xs (the method of
// Python's statistics.quantiles with method="inclusive"); NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// spread summarizes a sample: its median and interquartile range.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func spreadOf(xs []float64) spread {
	return spread{Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

// tail is the highest of the 90th, 99th and 99.9th percentiles of a
// latency sample that has at least ten samples beyond it. It is reported
// beside the end-to-end metrics but is not one of them: on the 2-vCPU box
// its spread from run to run was wider than any bound the benchmark may
// set (README.md).
type tail struct {
	Percentile float64 `json:"percentile"`
	Ms         float64 `json:"ms"`
	Samples    int     `json:"samples"`
}

func tailOf(xs []float64) tail {
	t := tail{Samples: len(xs)}
	for _, p := range []float64{90, 99, 99.9} {
		if float64(len(xs))*(1-p/100) >= 10 {
			t.Percentile, t.Ms = p, quantile(xs, p/100)
		}
	}
	return t
}

// noiseFloor times a fixed memory-heavy stdlib kernel — json.Unmarshal of
// the workload's corpus file into an interface value — between units of
// measured work. Its drift over a run shows how far the box itself moved
// while the workload was being measured. It also reads the machine's
// steal time from the first sample to the last: on a shared virtual
// machine, the share of CPU time the host gave to other tenants, which
// slowed every metric of the runs it hit (README.md).
type noiseFloor struct {
	input   []byte
	samples []float64 // ms

	steal0, total0, steal1, total1 int64 // cpuTicks at the first and the last sample
}

func (n *noiseFloor) sample() {
	// Every sample starts from a collected heap, so the kernel times the
	// box rather than how much garbage the benchmark itself has made.
	runtime.GC()
	start := time.Now()
	var v any
	if err := json.Unmarshal(n.input, &v); err != nil {
		// The input is a corpus file this program just wrote.
		panic(err)
	}
	n.samples = append(n.samples, ms(time.Since(start)))
	n.steal1, n.total1 = cpuTicks()
	if len(n.samples) == 1 {
		n.steal0, n.total0 = n.steal1, n.total1
	}
}

// noiseReport is the kernel's summary over one run. Drift compares the
// median of the last fifth of the samples with that of the first fifth.
// A run whose steal share exceeds noisySteal, or whose drift exceeds
// noisyDrift over fifths of at least driftSamples, is flagged noisy. A
// serve run takes some ten samples, two to a fifth, and their drift
// flagged half the runs on a quiet machine.
type noiseReport struct {
	RefMs      float64 `json:"ref_ms"`
	RefIQRMs   float64 `json:"ref_iqr_ms"`
	Drift      float64 `json:"drift"`
	StealShare float64 `json:"steal_share"`
	Samples    int     `json:"samples"`
	Noisy      bool    `json:"noisy"`
}

const (
	noisyDrift   = 0.10
	driftSamples = 10
	noisySteal   = 0.02
)

func (n *noiseFloor) report() noiseReport {
	s := n.samples
	r := noiseReport{Samples: len(s)}
	if len(s) == 0 {
		return r
	}
	r.RefMs = median(s)
	r.RefIQRMs = quantile(s, 0.75) - quantile(s, 0.25)
	fifth := max(1, len(s)/5)
	first, last := median(s[:fifth]), median(s[len(s)-fifth:])
	r.Drift = last/first - 1
	if n.total1 > n.total0 {
		r.StealShare = float64(n.steal1-n.steal0) / float64(n.total1-n.total0)
	}
	r.Noisy = (fifth >= driftSamples && math.Abs(r.Drift) > noisyDrift) || r.StealShare > noisySteal
	return r
}
