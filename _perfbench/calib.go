package main

import "time"

// The reference loop is a fixed amount of host work that belongs to the
// benchmark, not to the program under test, so no change to the
// program can speed it up. Each untraced repetition times it several
// times, between its Run calls (rep.refNs), and run.py scales host
// times by the median. On the 2-vCPU VM the benchmark was
// tuned on, the simulator's speed swung by up to 50 % within a few
// minutes, and per repetition it correlated 0.8 to 0.96 with this
// loop's speed.
//
// The loop is compute-bound and cache-resident (a 4 KiB binary heap,
// integer hashing, a floating-point division): it measures the core's
// speed, and the cache state the simulator leaves behind cannot
// disturb it.
const (
	refHeapLen = 512
	refSteps   = 1_000_000
)

// refNsPerStep runs the reference loop once and returns host
// nanoseconds per step.
func refNsPerStep() float64 {
	var h [refHeapLen]uint64
	x := uint64(0x9E3779B97F4A7C15)
	for i := range h {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h[i] = x >> 1
	}
	acc := 1.0
	t0 := time.Now()
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Replace the heap minimum and sift it down.
		h[0] += x & 0xFFFF
		for j := 0; ; {
			c := 2*j + 1
			if c >= refHeapLen {
				break
			}
			if c+1 < refHeapLen && h[c+1] < h[c] {
				c++
			}
			if h[j] <= h[c] {
				break
			}
			h[j], h[c] = h[c], h[j]
			j = c
		}
		acc = acc*0.9999999 + float64(x&1023)/(1+float64(i&7))
	}
	ns := float64(time.Since(t0).Nanoseconds()) / refSteps
	refSink += acc + float64(h[0]&1)
	return ns
}

// refSink keeps the loop's result live so it cannot be optimised away.
var refSink float64
