package main

import (
	"crypto/sha256"
	"math"
	"sort"
	"time"
)

// refCalibration is the calibration task's time, in seconds, on the
// reference machine that the end-to-end times are scaled to.
//
// Shared machines change speed by 30% or more over minutes as neighbours
// load the cores and caches they share, and every timing of a CLI run moves
// with them, CPU time included: on a 2-vCPU cloud VM, ten 20-second runs of
// one workload gave median wall times whose quartile spread was 12-35%.
// Each set therefore also times a fixed calibration task before every CLI
// run and reports end-to-end times in reference seconds: measured seconds
// times refCalibration / (the task's median time over the set). The task
// shares no code with the checker, so a change to the checker moves the
// scaled times exactly as much as the measured ones. On that VM, scaling
// cut the spread to 3-10%. The VM's own median is 38 ms, so there scaled
// and measured times are close.
const refCalibration = 0.040

var calibrationSink int

// calibrate times the calibration task once: the geometric mean of an
// allocation-, map- and hash-bound pass and a pointer-heavy garbage
// collection pass, the combination that tracked the CLIs' slowdowns best of
// those tried (pure arithmetic and pure cache-missing loads tracked worse).
// It allocates a few MB at most: a child's peak RSS as Linux reports it
// includes the parent's when that is larger, so the harness must stay small.
func calibrate() float64 {
	return math.Sqrt(timeOnce(calibrateMaps) * timeOnce(calibrateGC))
}

func timeOnce(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

func calibrateMaps() {
	type entry struct{ vals []int32 }
	m := make(map[uint64]*entry)
	var keys []uint64
	x := uint64(88172645463325252)
	for i := 0; i < 150000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x % 60000
		e, ok := m[k]
		if !ok {
			e = &entry{}
			m[k] = e
			keys = append(keys, k)
		}
		e.vals = append(e.vals, int32(x))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buf := make([]byte, 0, 64)
	var sum [sha256.Size]byte
	for _, k := range keys {
		buf = buf[:0]
		for _, v := range m[k].vals {
			buf = append(buf, byte(v), byte(v>>8))
		}
		sum = sha256.Sum256(append(buf, sum[:]...))
	}
	calibrationSink += int(sum[0])
}

type calibrationNode struct{ l, r *calibrationNode }

func calibrationTree(depth int) *calibrationNode {
	if depth == 0 {
		return &calibrationNode{}
	}
	return &calibrationNode{calibrationTree(depth - 1), calibrationTree(depth - 1)}
}

func calibrateGC() {
	for i := 0; i < 8; i++ {
		if calibrationTree(16).l != nil {
			calibrationSink++
		}
	}
}
