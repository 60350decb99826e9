package main

import (
	"crypto/sha256"
	"math/rand"
	"sort"
	"time"
)

// referenceNominal is the reference kernel's wall time, in seconds, on the
// host the benchmark was calibrated on (a 2-core Intel Xeon, go1.24).
const referenceNominal = 0.030

var referenceSink int

// referenceTime times a fixed CPU and memory kernel that shares no code
// with the simulator: sorting, map inserts and hashing. Host-time metrics
// are scaled by referenceNominal over this time, measured right before
// each repetition, so a host that runs everything slower for a while (a
// shared machine's neighbours, frequency changes) does not read as a
// slower program.
func referenceTime() float64 {
	start := time.Now()
	rng := rand.New(rand.NewSource(1))
	v := make([]int, 200000)
	for i := range v {
		v[i] = rng.Int()
	}
	sort.Ints(v)
	m := make(map[int]int, 50000)
	for i := 0; i < 50000; i++ {
		m[v[i*3]] = i
	}
	buf := make([]byte, 1<<16)
	var h [32]byte
	for i := 0; i < 40; i++ {
		h = sha256.Sum256(buf)
		buf[i] = h[0]
	}
	referenceSink += len(m) + int(h[1])
	return time.Since(start).Seconds()
}
