package main

import (
	"sync"
	"time"
)

// Host calibration. The benchmark shares a small virtual machine whose
// speed drifts by tens of percent over minutes (hypervisor steal, neighbours'
// cache and memory traffic), which no code change causes. Before every pass
// and after the last one the benchmark times a fixed kernel that exercises
// the same host resources as the simulator — goroutine handoffs over
// unbuffered channels and cache-missing pointer chases, on two goroutines at
// once. The kernel allocates nothing and calls no nvmcp code, so a change to
// the program cannot move it.
//
// The end-to-end host times are rescaled by the square root of calibRef over
// the run's median kernel time. The kernel reacts more strongly to a slow
// host than the workloads do: over a stretch of heavy steal where the
// kernel's time doubled, paper-fig9's pass time grew by 0.57 of that in log
// terms, so the full ratio over-corrects and its square root does not.

// calibRef is about the kernel's median time on the 2-core host the
// benchmark was sized on: end-to-end host times read as seconds on that host.
const calibRef = 65 * time.Millisecond

const (
	calibHandoffs = 10000
	calibChases   = 350000
)

// calibRing is one cycle through 8 MB of int32 indices (Sattolo's
// algorithm, fixed generator), so every chase step is a dependent load that
// mostly misses the cache.
var calibRing = func() []int32 {
	n := 1 << 21
	r := make([]int32, n)
	for i := range r {
		r[i] = int32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		r[i], r[j] = r[j], r[i]
	}
	return r
}()

var calibSink [2]int64

// calibrate times the kernel on two goroutines at once.
func calibrate() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calibSink[w] = calibKernel(int32(w) << 20)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func calibKernel(from int32) int64 {
	ping, pong := make(chan int32), make(chan int32)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := range ping {
			pong <- v + 1
		}
	}()
	var s int64
	for i := int32(0); i < calibHandoffs; i++ {
		ping <- i
		s += int64(<-pong)
	}
	close(ping)
	<-done
	p := from
	for i := 0; i < calibChases; i++ {
		p = calibRing[p]
	}
	return s + int64(p)
}
