package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
)

// timing is a timing summary under the benchmark's reporting rule: the
// median, plus the highest whole percentile that still has at least
// ten samples above it, with the sample count. Below 11 samples no such
// percentile exists and only the median is reported.
type timing struct {
	N       int
	P50     float64
	TailPct int     // 0 when there are too few samples for a tail
	Tail    float64 // value at TailPct
}

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

func summarize(xs []float64) timing {
	t := timing{N: len(xs)}
	if len(xs) == 0 {
		return t
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t.P50 = median(s)
	if n := len(s); n > minBeyond {
		pct := 100 * (n - minBeyond) / n
		// Nearest rank: the ceil(pct·n/100)-th smallest sample, which
		// leaves n - rank >= minBeyond samples above it.
		rank := (pct*n + 99) / 100
		if pct > 0 && rank >= 1 {
			t.TailPct, t.Tail = pct, s[rank-1]
		}
	}
	return t
}

// median of an already sorted slice (mean of the middle pair when even).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

func (t timing) String() string {
	if t.TailPct == 0 {
		return fmt.Sprintf("p50 %.4f over n=%d (no tail percentile: needs >%d samples)", t.P50, t.N, minBeyond)
	}
	return fmt.Sprintf("p50 %.4f, p%d %.4f over n=%d", t.P50, t.TailPct, t.Tail, t.N)
}

// cpuSeconds is the process's user+system CPU time so far, from
// getrusage. It counts every goroutine and the GC, on every core.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeapMB forces a collection and returns the heap still live after
// it. Callers run it outside any timed region.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// digest hashes the JSON encodings of a report sequence. Reports carry
// no wall-clock fields, so equal inputs must give equal digests.
func digest(reports ...any) string {
	h := sha256.New()
	for _, r := range reports {
		b, err := json.Marshal(r)
		if err != nil {
			panic(fmt.Sprintf("roundbench: report does not marshal: %v", err))
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
