package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the subset of ../BENCHMARK.json the tests compare
// against the code.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name {
			t.Fatalf("workload %d: %s in BENCHMARK.json, %s in code", i, w.Name, workloads[i].Name)
		}
		if workloads[i].MinRounds <= settleRounds {
			t.Fatalf("%s: %d minimum rounds leave none after the %d settling rounds", w.Name, workloads[i].MinRounds, settleRounds)
		}
	}
	names := perLayerNames()
	if len(b.PerLayer) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, code reports %d", len(b.PerLayer), len(names))
	}
	for i, m := range b.PerLayer {
		if m.Name != names[i] {
			t.Fatalf("per-layer metric %d: %s in BENCHMARK.json, %s in code", i, m.Name, names[i])
		}
	}
}

// smallBench runs w with one set-up, the settling rounds and one measured
// round, and a three-round traced run: the shortest path through every
// code path of a real run.
func smallBench(t *testing.T, w *workload) *bench {
	small := *w
	small.MinRounds = settleRounds + 1
	return &bench{w: &small, seed: 1, seconds: 1e-9, out: &bytes.Buffer{}, tmp: t.TempDir(),
		start: time.Now(), setups: 1, traceRounds: 3}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for real")
	}
	want := loadBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, mode := range []struct {
				traced  bool
				metrics []struct{ Name, Unit string }
			}{{false, want.EndToEnd}, {true, want.PerLayer}} {
				b := smallBench(t, w)
				run := b.untraced
				if mode.traced {
					run = b.traced
				}
				res, err := run()
				if err != nil {
					t.Fatal(err)
				}
				out := b.out.(*bytes.Buffer).String()
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct %v, %d of %d failed\n%s", mode.traced, res.Correct, res.Failed, res.Attempted, out)
				}
				if len(res.Metrics) != len(mode.metrics) {
					t.Fatalf("traced=%v: %d metrics, BENCHMARK.json lists %d", mode.traced, len(res.Metrics), len(mode.metrics))
				}
				for _, m := range mode.metrics {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Fatalf("traced=%v: metric %s = %+v, want unit %s", mode.traced, m.Name, got, m.Unit)
					}
					if !mode.traced && !(got.Value > 0) {
						t.Fatalf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
					if !strings.Contains(out, m.Name+" = ") {
						t.Fatalf("traced=%v: %s not printed by name", mode.traced, m.Name)
					}
				}
			}
		})
	}
}

func TestAccuracyFloorAppliesToTheAverage(t *testing.T) {
	rounds := func(accs ...float64) (out []roundSample) {
		for _, a := range accs {
			out = append(out, roundSample{res: roundResult{MeanAcc: a}})
		}
		return out
	}
	b := &bench{out: io.Discard}
	if got := b.meanAccuracy(rounds(0.9, 0.5, 0.9)); got < 0.76 || got > 0.77 || b.runFailed {
		t.Fatalf("one low round: mean %v, run failed %v", got, b.runFailed)
	}
	b = &bench{out: io.Discard}
	if b.meanAccuracy(rounds(0.6, 0.7, 0.7)); !b.runFailed {
		t.Fatal("an average below the floor did not fail the run")
	}
	if res := b.finish(nil); res.Correct || res.Failed != 0 {
		t.Fatalf("run-level failure reported as correct %v with %d failed node-rounds", res.Correct, res.Failed)
	}
}

func TestChecksCountFailures(t *testing.T) {
	w, err := findWorkload("fleet-insitu")
	if err != nil {
		t.Fatal(err)
	}
	ok := func() roundResult {
		r := roundResult{MeanAcc: 0.9}
		for i := 0; i < w.Nodes; i++ {
			r.Nodes = append(r.Nodes, nodeRound{Captured: 44, Uploaded: 20, Calib: 12})
		}
		return r
	}
	for _, c := range []struct {
		name   string
		round  int
		mutate func(*roundResult)
		failed int
		wire   string
	}{
		{"healthy", 3, func(*roundResult) {}, 0, ""},
		{"one node deploy failed", 3, func(r *roundResult) { r.Nodes[5].Failure = "deploy failed" }, 1, ""},
		{"everything uploaded after round 1", 2, func(r *roundResult) {
			for i := range r.Nodes {
				r.Nodes[i].Uploaded = r.Nodes[i].Captured
			}
		}, w.Nodes, ""},
		{"everything uploaded in round 1 is allowed", 1, func(r *roundResult) {
			for i := range r.Nodes {
				r.Nodes[i].Uploaded = r.Nodes[i].Captured
			}
		}, 0, ""},
		{"node missing from the report", 3, func(r *roundResult) { r.Nodes = r.Nodes[1:] }, w.Nodes, ""},
		{"socket bytes not wire frames", 3, func(*roundResult) {}, w.Nodes, "unparsable"},
	} {
		b := &bench{w: w}
		r := ok()
		c.mutate(&r)
		b.check(c.round, r, c.wire)
		if b.attempted != w.Nodes || b.failed != c.failed {
			t.Errorf("%s: %d of %d failed, want %d of %d", c.name, b.failed, b.attempted, c.failed, w.Nodes)
		}
	}
}
