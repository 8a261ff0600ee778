package main

import (
	"runtime/metrics"
	"time"
)

// memInterval is how often the memory sampler reads the runtime's
// footprint.
const memInterval = 20 * time.Millisecond

// residentMB reads the memory the Go runtime holds from the operating
// system: everything it has mapped (heap, stacks, runtime structures)
// minus what it has released back. The process's server, engine and
// clients all live in this one runtime.
func residentMB(s []metrics.Sample) float64 {
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// sampleMemory samples the footprint until stop is closed and returns
// the median of the peaks of its one-second slices: the window's
// high-water mark, read so that one garbage-collection cycle that
// happens to run late does not decide it.
func sampleMemory(stop <-chan struct{}) float64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	tick := time.NewTicker(memInterval)
	defer tick.Stop()
	var peaks []float64
	peak := residentMB(s)
	sliceEnd := time.Now().Add(time.Second)
	for {
		select {
		case <-stop:
			if len(peaks) == 0 {
				return peak
			}
			return median(peaks)
		case now := <-tick.C:
			peak = max(peak, residentMB(s))
			if now.After(sliceEnd) {
				peaks = append(peaks, peak)
				peak = 0
				sliceEnd = sliceEnd.Add(time.Second)
			}
		}
	}
}
