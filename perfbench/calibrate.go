package main

import (
	"crypto/sha256"
	"sort"
	"time"
)

// Host-speed calibration. On a shared host the work a CPU-second buys is
// not fixed: on the reference box it halved within seconds when the host's
// other tenants got busy (for the workloads and for the kernel below alike),
// so neither CPU time nor wall-clock time of two runs compare. The benchmark
// therefore runs a fixed kernel between its measured steps and reports every
// end-to-end timing at a reference host speed: a CPU time t, measured
// between two kernel runs that took k1 and k2 of CPU time, counts as
// t × probeNominal / ((k1+k2)/2). The kernel mixes arithmetic, sorting,
// hashing, map updates and a pointer-linked tree, and uses only Go's
// standard library, none of GOOFI's code, so no change to GOOFI can move it.

// probeNominal is the kernel's CPU time at the reference host speed.
const probeNominal = 25 * time.Millisecond

var probeSink uint64

// probeKernel runs the calibration kernel once and returns the CPU time it
// took on its thread.
func probeKernel() time.Duration {
	return onThreadCPU(func() {
		x := uint64(88172645463325252)
		xs := make([]uint64, 1<<17)
		for i := range xs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			xs[i] = x
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		buf := make([]byte, 1<<20)
		for i := range buf {
			buf[i] = byte(xs[i%len(xs)])
		}
		sum := sha256.Sum256(buf)
		m := map[uint64]int{}
		for i := 0; i < 1<<15; i++ {
			m[xs[(i*7919)%len(xs)]] += i
		}
		var root *probeNode
		for i := 0; i < 1<<15; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			root = root.insert(x)
		}
		probeSink += uint64(sum[0]) + uint64(len(m)) + root.sum()
	})
}

// probeNode is a node of an unbalanced search tree: many small allocations
// and pointer chasing, as in the engine's and the SQL store's own data.
type probeNode struct {
	key         uint64
	left, right *probeNode
}

func (n *probeNode) insert(k uint64) *probeNode {
	if n == nil {
		return &probeNode{key: k}
	}
	if k < n.key {
		n.left = n.left.insert(k)
	} else {
		n.right = n.right.insert(k)
	}
	return n
}

func (n *probeNode) sum() uint64 {
	if n == nil {
		return 0
	}
	return n.key + n.left.sum() + n.right.sum()
}

// probe runs the kernel once, keeps its CPU time and returns it in seconds.
func (b *bench) probe() float64 {
	k := probeKernel().Seconds()
	b.probes = append(b.probes, k)
	return k
}

// sampleCPU records one end-to-end sample v, in unit, measured in CPU time
// between two kernel runs that took before and after: as measured for the
// context line, and at the reference host speed for the metric.
func (b *bench) sampleCPU(name, unit string, v, before, after float64) {
	b.cpu[name] = append(b.cpu[name], v)
	b.sample(name, atReference(v, unit, (before+after)/2))
}

// atReference gives v, measured in CPU time while the kernel took probe
// seconds, at the reference host speed: times scale with the host's
// slowness, rates against it, and anything else not at all.
func atReference(v float64, unit string, probe float64) float64 {
	f := ratio(probeNominal.Seconds(), probe)
	switch unit {
	case "s", "ms":
		return v * f
	case "1/s":
		return ratio(v, f)
	}
	return v
}
