package main

import (
	"math"
	"testing"
	"time"
)

func TestSummarizeTailRule(t *testing.T) {
	for n := 1; n <= 300; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i * 7919) % n) // a permutation of 0..n-1
		}
		got := summarize(xs)
		if got.N != n {
			t.Fatalf("n=%d: N=%d", n, got.N)
		}
		if want := float64(n-1) / 2; got.P50 != want {
			t.Fatalf("n=%d: p50 %v, want %v", n, got.P50, want)
		}
		if n <= minBeyond {
			if got.TailPct != 0 {
				t.Fatalf("n=%d: reported p%d with too few samples", n, got.TailPct)
			}
			continue
		}
		// Values are 0..n-1, so value v has n-1-v samples above it.
		if above := n - 1 - int(got.Tail); above < minBeyond {
			t.Fatalf("n=%d: p%d=%v has only %d samples above it", n, got.TailPct, got.Tail, above)
		}
		// One percent higher must leave fewer than minBeyond above.
		next := got.TailPct + 1
		if rank := (next*n + 99) / 100; n-rank >= minBeyond {
			t.Fatalf("n=%d: p%d is not the highest percentile with %d samples above", n, got.TailPct, minBeyond)
		}
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got := summarize(xs)
	if got.TailPct != 90 || got.Tail != 90 || got.P50 != 50.5 {
		t.Fatalf("1..100: got %+v, want p50 50.5 and p90 90", got)
	}
	if got := summarize([]float64{3, 1, 2}); got.P50 != 2 || got.TailPct != 0 {
		t.Fatalf("three samples: %+v", got)
	}
	if !math.IsNaN(medianOf(nil)) {
		t.Fatal("median of nothing should be NaN")
	}
}

func TestSummarizeDoesNotReorderInput(t *testing.T) {
	xs := []float64{5, 1, 4}
	summarize(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 4 {
		t.Fatalf("input reordered: %v", xs)
	}
}

// spin burns CPU on this goroutine for about d.
func spin(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	return x
}

var sink float64

func TestCPUSecondsCountsBusyNotIdle(t *testing.T) {
	c0 := cpuSeconds()
	sink = spin(200 * time.Millisecond)
	busy := cpuSeconds() - c0
	if busy < 0.1 || busy > 1 {
		t.Fatalf("200 ms of spinning counted as %.3f CPU s", busy)
	}
	c0 = cpuSeconds()
	time.Sleep(200 * time.Millisecond)
	if idle := cpuSeconds() - c0; idle > 0.05 {
		t.Fatalf("200 ms of sleep counted as %.3f CPU s", idle)
	}
}

func TestCPUSecondsCountsOtherGoroutines(t *testing.T) {
	c0 := cpuSeconds()
	done := make(chan float64, 2)
	for i := 0; i < 2; i++ {
		go func() { done <- spin(150 * time.Millisecond) }()
	}
	sink = <-done + <-done
	// Two goroutines spinning 150 ms each: at least the work of one,
	// whether they ran in parallel or not.
	if got := cpuSeconds() - c0; got < 0.12 {
		t.Fatalf("two spinning goroutines counted as %.3f CPU s", got)
	}
}

func TestDigestIsStableAndSensitive(t *testing.T) {
	type rep struct{ A, B float64 }
	a, b := digest(rep{1, 2}, rep{3, 4}), digest(rep{1, 2}, rep{3, 4})
	if a != b {
		t.Fatal("equal reports gave different digests")
	}
	if a == digest(rep{1, 2}, rep{3, 4.0000001}) {
		t.Fatal("a changed field did not change the digest")
	}
}
