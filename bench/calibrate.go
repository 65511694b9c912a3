package main

import (
	"slices"
	"time"
)

// The hosts this benchmark runs on share their cores with other tenants,
// and their speed drifts by 10 to 20 percent over tens of seconds: two
// identical passes a minute apart differ that much in wall time. The
// drift slows all CPU-bound code alike, so the benchmark samples it with
// a fixed reference kernel between compilations and scales every time it
// reports by nominalKernel over the kernel's median time while that time
// was taken. The timing metrics therefore read as milliseconds of a host
// running at nominal speed. The kernel is part of the benchmark, so it is
// the same code on every commit the benchmark compares.

// nominalKernel is the kernel's median time on the host the baseline was
// measured on, a 2-vCPU Intel Xeon VM at 2.0 GHz.
const nominalKernel = 800 * time.Microsecond

// sampleEvery is how much compile time may pass between two kernel
// samples.
const sampleEvery = 200 * time.Millisecond

// calibrator holds the kernel's fixed input. The kernel sorts a copy of a
// pseudo-random array, walks a lookup table with the result, and builds
// small maps and slices: the branches, memory traffic, hashing and
// allocation the compiler's own passes are made of. Of the kernels tried,
// this mix tracked the compiler's drift most closely.
type calibrator struct {
	src, buf []uint32
	next     map[uint32]uint32
	sink     int
	// samples collects kernel times until the caller takes them.
	samples []time.Duration
	last    time.Time
}

func newCalibrator() *calibrator {
	const n = 1 << 12
	c := &calibrator{src: make([]uint32, n), buf: make([]uint32, n), next: make(map[uint32]uint32, n)}
	x := uint32(2463534242)
	for i := range c.src {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		c.src[i] = x
		c.next[x%n] = x
	}
	return c
}

func (c *calibrator) kernel() {
	copy(c.buf, c.src)
	slices.Sort(c.buf)
	k := c.buf[0]
	for _, v := range c.buf {
		k = c.next[(k^v)%uint32(len(c.buf))]
	}
	c.sink += int(k)
	x := uint64(88172645463325252)
	for r := 0; r < 40; r++ {
		m := make(map[int]int)
		var s [][]int
		for i := 0; i < 64; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			m[int(x%97)] += i
			s = append(s, make([]int, 4+int(x%8)))
		}
		c.sink += len(m) + len(s)
	}
}

// sample times the kernel once and keeps the time.
func (c *calibrator) sample() {
	start := time.Now()
	c.kernel()
	c.last = time.Now()
	c.samples = append(c.samples, c.last.Sub(start))
}

// tick samples the kernel if sampleEvery has passed since the last
// sample.
func (c *calibrator) tick() {
	if time.Since(c.last) >= sampleEvery {
		c.sample()
	}
}

// speed returns the host's speed relative to nominal over the samples
// taken since the last call, above 1 when it ran faster, and starts a
// new set of samples.
func (c *calibrator) speed() float64 {
	ts := c.samples
	c.samples = nil
	if len(ts) == 0 {
		return 1
	}
	slices.Sort(ts)
	return float64(nominalKernel) / float64(ts[len(ts)/2])
}
