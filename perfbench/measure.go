package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// observed is what one drive of a workload saw.
type observed struct {
	elapsed time.Duration
	// items counts data items decided; enacts counts enactments (stream:
	// windows enacted). Per-layer figures are per enactment.
	items, enacts int64
	// attempted and failed count user-visible operations; an operation
	// whose output fails its oracle check counts as failed.
	attempted, failed int64
	// rate, when positive, overrides items/elapsed (the stream reports
	// the saturating phase's throughput).
	rate float64
	// topo says where the workload's services ran.
	topo topology
	// primary names the series behind latency_p50_ms / latency_p90_ms.
	primary string
	// series holds latency samples in milliseconds by name.
	series map[string][]float64
	// rounds, when set, holds the primary series' summary per round of a
	// workload that alternates phases; the latency percentiles are then
	// the median over rounds, so a stretch of the run that a collector
	// cycle or a busy neighbour slowed moves them less.
	rounds []summary
	// detail holds workload-named figures for the stamped record.
	detail map[string]metric
	// layer holds per-layer values only the workload can attribute.
	layer map[string]float64

	checks                   []check
	checksRun, checkFailures int64
}

// check is an oracle comparison deferred until after the timed phase.
type check struct {
	name string
	fn   func() error
}

func newObserved(primary string) *observed {
	return &observed{
		primary: primary,
		series:  map[string][]float64{},
		detail:  map[string]metric{},
		layer:   map[string]float64{},
	}
}

// verify runs an oracle check now, charging a failure to the operation.
func (o *observed) verify(name string, err error) {
	o.checksRun++
	if err != nil {
		o.checkFailures++
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %v\n", name, err)
	}
}

func (o *observed) later(name string, fn func() error) {
	o.checks = append(o.checks, check{name, fn})
}

func (o *observed) runChecks() {
	for _, c := range o.checks {
		o.verify(c.name, c.fn())
	}
	o.checks = nil
}

// absorb adds a later untraced segment to this one.
func (o *observed) absorb(p *observed) {
	if o.rate > 0 && p.rate > 0 {
		o.rate = (o.rate + p.rate) / 2
	}
	o.elapsed += p.elapsed
	o.items += p.items
	o.enacts += p.enacts
	o.attempted += p.attempted
	o.failed += p.failed
	o.checksRun += p.checksRun
	o.checkFailures += p.checkFailures
	for k, xs := range p.series {
		o.series[k] = append(o.series[k], xs...)
	}
	o.rounds = append(o.rounds, p.rounds...)
}

// latency summarizes the primary series; p50 and p90 are the median over
// rounds when the workload has them.
func (o *observed) latency() summary {
	s := summarize(o.series[o.primary])
	if len(o.rounds) > 0 {
		p50s := make([]float64, len(o.rounds))
		p90s := make([]float64, len(o.rounds))
		for i, r := range o.rounds {
			p50s[i], p90s[i] = r.p50, r.p90
		}
		s.p50, s.p90 = median(p50s), median(p90s)
	}
	return s
}

func (o *observed) itemsPerSec() float64 {
	if o.rate > 0 {
		return o.rate
	}
	return float64(o.items) / o.elapsed.Seconds()
}

type summary struct {
	n                   int
	p50, p90, p99, mean float64
}

func summarize(xs []float64) summary {
	s := summary{n: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.p50 = quantile(sorted, 0.50)
	s.p90 = quantile(sorted, 0.90)
	s.p99 = quantile(sorted, 0.99)
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	s.mean = sum / float64(len(sorted))
	return s
}

// quantile interpolates linearly between the closest ranks of a sorted
// sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Runtime metrics read around a timed phase.
const (
	rmAllocs   = "/gc/heap/allocs:bytes"
	rmCycles   = "/gc/cycles/total:gc-cycles"
	rmGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU = "/cpu/classes/total:cpu-seconds"
	rmPauses   = "/sched/pauses/total/gc:seconds"
	rmLive     = "/gc/heap/live:bytes"
)

type runtimeSnap struct {
	allocs, cycles  uint64
	gcCPU, totalCPU float64
	pauses          *metrics.Float64Histogram
}

type runtimeDelta struct {
	allocBytes   uint64
	cycles       uint64
	gcCPUShare   float64
	pauseP99ms   float64
	maxLiveBytes uint64
}

func readRuntime() runtimeSnap {
	samples := []metrics.Sample{{Name: rmAllocs}, {Name: rmCycles}, {Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmPauses}}
	metrics.Read(samples)
	return runtimeSnap{
		allocs:   samples[0].Value.Uint64(),
		cycles:   samples[1].Value.Uint64(),
		gcCPU:    samples[2].Value.Float64(),
		totalCPU: samples[3].Value.Float64(),
		pauses:   samples[4].Value.Float64Histogram(),
	}
}

func (s runtimeSnap) since(b runtimeSnap) runtimeDelta {
	d := runtimeDelta{allocBytes: s.allocs - b.allocs, cycles: s.cycles - b.cycles}
	if cpu := s.totalCPU - b.totalCPU; cpu > 0 {
		d.gcCPUShare = (s.gcCPU - b.gcCPU) / cpu
	}
	// The pause histogram is cumulative: subtract bucket by bucket and
	// take the upper bound of the bucket holding the 99th percentile.
	var total uint64
	counts := make([]uint64, len(s.pauses.Counts))
	for i := range counts {
		counts[i] = s.pauses.Counts[i] - b.pauses.Counts[i]
		total += counts[i]
	}
	if total > 0 {
		want := uint64(math.Ceil(0.99 * float64(total)))
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen >= want {
				hi := s.pauses.Buckets[i+1]
				if math.IsInf(hi, 1) {
					hi = s.pauses.Buckets[i]
				}
				d.pauseP99ms = hi * 1e3
				break
			}
		}
	}
	return d
}

// startHeapSampler polls the live heap every 5 ms until the returned
// function is called; that function stops the poller, waits for it and
// returns the highest value sampled.
func startHeapSampler() func() uint64 {
	stop := make(chan struct{})
	var (
		wg   sync.WaitGroup
		peak uint64
	)
	sample := []metrics.Sample{{Name: rmLive}}
	poll := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > peak {
			peak = v
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				poll()
				return
			case <-tick.C:
				poll()
			}
		}
	}()
	return func() uint64 {
		close(stop)
		wg.Wait()
		return peak
	}
}

// endToEnd assembles the untraced run's result.
func endToEnd(obs *observed, rm runtimeDelta, setupS float64) result {
	lat := obs.latency()
	m := map[string]metric{
		"setup_s":           {setupS, "s"},
		"items_per_s":       {obs.itemsPerSec(), "items/s"},
		"latency_p50_ms":    {lat.p50, "ms"},
		"latency_p90_ms":    {lat.p90, "ms"},
		"alloc_kb_per_item": {float64(rm.allocBytes) / 1024 / float64(obs.items), "KiB"},
		"max_heap_mb":       {float64(rm.maxLiveBytes) / (1 << 20), "MiB"},
	}
	return result{
		Correct:   obs.failed == 0,
		Attempted: obs.attempted,
		Failed:    obs.failed,
		Metrics:   m,
	}
}
