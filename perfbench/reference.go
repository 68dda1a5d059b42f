package main

import (
	"runtime"
	"time"
)

// The reference kernel is fixed host work that never changes with the
// simulator: an allocation loop that keeps a window of pointer-linked nodes
// live for the collector to mark, and random read-modify-writes over a
// 16 MB table. The shared host this benchmark runs on drifts in speed by a
// quarter or more over minutes, and the kernel slows and speeds with the
// simulator: on a 2-vCPU VM, over 7.5 s windows of a 200 s trace in which the
// host's speed swung by 30%, the log of a Table I bandwidth+contention
// sweep's time regressed on the log of this kernel's with slope 0.92 and
// correlation 0.97 (an integer loop alone: slope 2.7, correlation 0.68).
// Timed between repetitions, it turns host times into times on a host of
// fixed speed, which measure the simulator rather than the host's load.

// refNominalS is the reference kernel's nominal duration: normalized times
// are seconds on a host where the kernel takes exactly this long.
const refNominalS = 0.1

const (
	refAllocRuns = 40
	refAllocLen  = 20_000
	refLiveRuns  = 10
	refTableLen  = 1 << 21 // 16 MB of uint64
	refTableOps  = 1 << 21
)

type refNode struct {
	next *refNode
	v    [6]uint64
}

// refTable stays allocated for the whole run, so peak_rss_mb includes it.
var refTable = make([]uint64, refTableLen)

var refSink uint64

// reference runs the reference kernel once (after a collection) and returns
// its wall and CPU seconds.
func reference() (wall, cpu float64) {
	runtime.GC()
	c0, t0 := cpuSeconds(), time.Now()
	var live []*refNode
	for r := 0; r < refAllocRuns; r++ {
		var h *refNode
		for i := 0; i < refAllocLen; i++ {
			h = &refNode{next: h}
			h.v[0] = uint64(i)
		}
		live = append(live, h)
		if len(live) > refLiveRuns {
			live = live[1:]
		}
	}
	x, sum := uint64(1), uint64(0)
	for i := 0; i < refTableOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		sum += refTable[(x>>32)&(refTableLen-1)]
		refTable[(x>>20)&(refTableLen-1)]++
	}
	refSink += sum + live[0].v[0]
	return time.Since(t0).Seconds(), cpuSeconds() - c0
}
