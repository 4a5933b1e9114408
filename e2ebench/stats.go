package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// sample is a set of measurements of one quantity, kept whole so the
// report can state how many values a percentile rests on.
type sample []float64

// sorted returns a sorted copy.
func (s sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation between closest ranks — the same rule as Python's
// statistics.quantiles(method="inclusive") — and the number of values
// strictly above it, which says whether that tail is backed by enough
// samples to trust. An empty sample gives NaN.
func (s sample) percentile(p float64) (v float64, above int) {
	if len(s) == 0 {
		return math.NaN(), 0
	}
	c := s.sorted()
	pos := p / 100 * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v = c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
	for _, x := range c {
		if x > v {
			above++
		}
	}
	return v, above
}

func (s sample) median() float64 {
	v, _ := s.percentile(50)
	return v
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t / float64(len(s))
}

// timeIt runs fn and returns its wall time in seconds.
func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// cpuNow returns the CPU time the process has used, user plus system.
// On a virtual machine it leaves out the time the host gave the
// process's CPUs to other guests (steal), which wall-clock time counts.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cost is what a unit of work took, in seconds: wall-clock time and
// the CPU time of the whole process (every goroutine, the garbage
// collector and, in the fleet, the in-process servers).
type cost struct{ wall, cpu float64 }

func measure(fn func()) cost {
	t0, c0 := time.Now(), cpuNow()
	fn()
	return cost{wall: time.Since(t0).Seconds(), cpu: (cpuNow() - c0).Seconds()}
}

// costs is a series of measured units.
type costs []cost

func (cs costs) wall() sample {
	s := make(sample, len(cs))
	for i, c := range cs {
		s[i] = c.wall
	}
	return s
}

func (cs costs) cpu() sample {
	s := make(sample, len(cs))
	for i, c := range cs {
		s[i] = c.cpu
	}
	return s
}

// medianOf runs fn reps times and returns the median wall and CPU
// time: the rule for short or memory-bound steps, whose single shots
// drift run to run.
func medianOf(reps int, fn func()) cost {
	var cs costs
	for i := 0; i < reps; i++ {
		cs = append(cs, measure(fn))
	}
	return cost{wall: cs.wall().median(), cpu: cs.cpu().median()}
}

// ms converts seconds to milliseconds.
func ms(sec float64) float64 { return sec * 1e3 }
