package main

import (
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank is the p-th percentile of xs by the nearest-rank rule.
func nearestRank(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tail is the highest percentile of xs that still has at least ten
// samples beyond it, from a fixed ladder; ok is false when there are too
// few samples for even the median to qualify.
func tail(xs []float64) (p, v float64, ok bool) {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(len(xs))*(1-p/100) >= 10 {
			return p, nearestRank(xs, p), true
		}
	}
	return 0, 0, false
}

// intervalLen is the shortest slice of an injection phase whose rate is
// kept. Medians over many slices keep a run's figures steady on a host
// whose speed wanders from second to second.
const intervalLen = 250 * time.Millisecond

// slices holds, for every slice of an injection phase, the injection
// rate and the process CPU time per injection.
type slices struct {
	rates, cpuMs []float64
}

// phase is one repetition's injection phase across the campaigns that run
// side by side in it. It opens once every campaign has reported progress
// and closes when the first one finishes, so its slices and bracketing
// samples cover only time in which every campaign is injecting.
type phase struct {
	mu         sync.Mutex
	done       []int // latest progress per campaign; -1 before the first
	started    int
	open       bool
	a, b       sampler // at opening and closing
	injA, injB int     // summed progress at opening and closing
	onOpen     func()  // both run under the lock
	onClose    func()

	sl        slices
	sliceAt   time.Time
	sliceDone int
	sliceCPU  time.Duration
}

func newPhase(campaigns int, onOpen, onClose func()) *phase {
	p := &phase{done: make([]int, campaigns), onOpen: onOpen, onClose: onClose}
	for i := range p.done {
		p.done[i] = -1
	}
	return p
}

func (p *phase) sum() int {
	n := 0
	for _, d := range p.done {
		n += max(d, 0)
	}
	return n
}

// progress records campaign c's cumulative progress; first runs, under
// the phase lock, on c's first report.
func (p *phase) progress(c, done int, first func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done[c] < 0 {
		p.done[c] = done
		first()
		if p.started++; p.started == len(p.done) {
			p.open = true
			p.a, p.injA = sample(), p.sum()
			p.sliceAt, p.sliceDone, p.sliceCPU = p.a.at, p.injA, p.a.cpu
			p.onOpen()
		}
		return
	}
	if done <= p.done[c] {
		return // a parallel worker's report overtaken by its sibling's
	}
	p.done[c] = done
	now := time.Now()
	if !p.open || now.Sub(p.sliceAt) < intervalLen {
		return
	}
	cpu, total := cpuTime(), p.sum()
	n := float64(total - p.sliceDone)
	p.sl.rates = append(p.sl.rates, n/now.Sub(p.sliceAt).Seconds())
	p.sl.cpuMs = append(p.sl.cpuMs, float64(cpu-p.sliceCPU)/float64(time.Millisecond)/n)
	p.sliceAt, p.sliceDone, p.sliceCPU = now, total, cpu
}

// finish closes the phase; the first campaign to end calls it.
func (p *phase) finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.open {
		p.open = false
		p.b, p.injB = sample(), p.sum()
		p.onClose()
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampler reads the process-wide counters a measured window is
// bracketed by.
type sampler struct {
	cpu    time.Duration // user + system CPU time of the process
	alloc  uint64        // cumulative heap bytes allocated
	gcCPU  float64       // cumulative GC CPU seconds
	allCPU float64       // cumulative CPU seconds seen by the runtime
	gcs    uint64        // completed GC cycles
	at     time.Time
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func sample() sampler {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return sampler{
		cpu:    cpuTime(),
		alloc:  s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
		allCPU: s[2].Value.Float64(),
		gcs:    s[3].Value.Uint64(),
		at:     time.Now(),
	}
}

// freeMemory returns the memory set-up and reference runs freed to the
// OS, so it does not count toward the measured window's peak.
func freeMemory() { debug.FreeOSMemory() }

// resetPeakRSS restarts the kernel's peak-RSS high-water mark, so peakRSS
// reads the peak of what follows.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS is the process's resident-memory high-water mark in MiB.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
