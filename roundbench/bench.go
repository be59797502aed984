package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"
	"time"

	"insitu/internal/core"
	"insitu/internal/dataset"
	"insitu/internal/deploy"
	"insitu/internal/fleet"
	"insitu/internal/jigsaw"
	"insitu/internal/models"
	"insitu/internal/nn"
	"insitu/internal/telemetry"
	"insitu/internal/tensor"
	"insitu/internal/wire"
)

const (
	// setupRuns is how many times an untraced run constructs and
	// bootstraps the system; setup_s is their median.
	setupRuns = 3
	// traceRuns is the traced run's minimum round count: one warm-up
	// round, then traced and untraced rounds alternating, two of each.
	traceRuns = 5
	// runBudget stops starting rounds well inside the 180 s limit.
	runBudget = 150 * time.Second
	// maxNotes bounds how many failure messages a run prints.
	maxNotes = 10
	// settleRounds are the first rounds the byte metrics skip. The
	// diagnosis threshold is still settling from its bootstrap value
	// there, so uploads swing with the seed: fleet-insitu's mean upload
	// count over rounds 1-7 spread 0.14 across seeds 1-20 (quartile
	// distance over median), over rounds 4-10 0.05 across seeds 11-20.
	settleRounds = 3
)

// accFloor is the lowest mean node accuracy, averaged over a run's
// rounds, that counts as correct: 0.15 below the lowest any of seeds
// 1-10 reached on any workload (0.85) and far above chance (0.2 for
// five classes). Single rounds dip lower (0.53 on cloud-retrain seed 8),
// so the floor applies to the average, not to each round.
const accFloor = 0.7

type bench struct {
	w       *workload
	seed    uint64
	seconds float64
	out     io.Writer
	tmp     string
	start   time.Time
	// setups and traceRounds are setupRuns and traceRuns outside tests.
	setups, traceRounds int

	attempted, failed int
	runFailed         bool // a check of the whole run, not of a node-round, failed
	notes             []string
}

func (b *bench) note(format string, args ...any) {
	if len(b.notes) < maxNotes {
		b.notes = append(b.notes, fmt.Sprintf(format, args...))
	}
}

// check applies the correctness rules to one round (0 = bootstrap) and
// counts its node-rounds as attempted and, where a rule fails, failed.
// roundWide, when set, fails every node-round of the round.
func (b *bench) check(round int, r roundResult, roundWide string) {
	// The Table II effect: after the first incremental round, node-side
	// diagnosis keeps some captured images off the uplink.
	if round >= 2 && b.w.Kind.UsesNodeDiagnosis() && r.uploaded() >= r.captured() {
		roundWide = fmt.Sprintf("uploaded %d of %d captured images", r.uploaded(), r.captured())
	}
	if len(r.Nodes) != b.w.Nodes {
		roundWide = fmt.Sprintf("report has %d nodes, want %d", len(r.Nodes), b.w.Nodes)
	}
	b.attempted += b.w.Nodes
	for i := 0; i < b.w.Nodes; i++ {
		why := roundWide
		if i < len(r.Nodes) && r.Nodes[i].Failure != "" {
			why = r.Nodes[i].Failure
		}
		if why != "" {
			b.failed++
			b.note("round %d node %d: %s", round, i, why)
		}
	}
}

// setup constructs and bootstraps the system n times, closing all but
// the last, and returns each set-up's wall-clock and bootstrap digest.
func (b *bench) setup(n int) (sess session, times []float64, digests []string, err error) {
	for k := 0; k < n; k++ {
		if sess != nil {
			if err := b.closeSession(sess); err != nil {
				return nil, nil, nil, err
			}
		}
		liveHeapMB() // collect the previous set-up's garbage outside the timing
		t0 := time.Now()
		s, boot, err := b.w.open(b.seed, b.tmp)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		b.check(0, boot, "")
		digests = append(digests, digest(boot.Report))
		sess = s
	}
	return sess, times, digests, nil
}

// roundSample is one measured round.
type roundSample struct {
	res      roundResult
	wall     float64 // s
	cpu      float64 // process CPU s
	heap     float64 // live MB after the round, after a forced GC
	up, down wireSnap
	traced   bool
}

// loop runs rounds until --seconds have passed and at least minRounds
// rounds are done. traced(i) says whether round i runs with telemetry on;
// enable switches it. The forced GC behind every heap reading happens
// between rounds, outside the timed region.
func (b *bench) loop(sess session, minRounds int, traced func(int) bool, enable func(bool)) (samples []roundSample, heap0 float64) {
	heap0 = liveHeapMB()
	link := sess.wire()
	loopStart := time.Now()
	for i := 0; ; i++ {
		if i >= minRounds {
			last := time.Duration(samples[len(samples)-1].wall * 1.5 * float64(time.Second))
			if time.Since(loopStart).Seconds() >= b.seconds || time.Since(b.start)+last > runBudget {
				break
			}
		}
		s := roundSample{traced: traced(i)}
		var in0, out0 wireSnap
		if link != nil {
			in0, out0 = link.cloudIn.snap(), link.cloudOut.snap()
		}
		enable(s.traced)
		c0, t0 := cpuSeconds(), time.Now()
		s.res = sess.round(b.w.PerRound)
		s.wall, s.cpu = time.Since(t0).Seconds(), cpuSeconds()-c0
		enable(false)
		if link != nil {
			s.up, s.down = link.cloudIn.snap().add(in0, -1), link.cloudOut.snap().add(out0, -1)
		}
		s.heap = liveHeapMB()
		var wireErr string
		if s.up.ParseErrs+s.down.ParseErrs > 0 {
			wireErr = fmt.Sprintf("socket bytes did not parse as wire frames (up %v; down %v)", s.up, s.down)
		}
		b.check(i+1, s.res, wireErr)
		tag := ""
		if s.traced {
			tag = " traced"
		}
		fmt.Fprintf(b.out, "round %d%s: wall %.4f s, cpu %.4f s, captured %d, uploaded %d, trained %d, accuracy %.4f, live heap %.2f MB\n",
			i+1, tag, s.wall, s.cpu, s.res.captured(), s.res.uploaded(), s.res.Trained, s.res.MeanAcc, s.heap)
		samples = append(samples, s)
	}
	return samples, heap0
}

// meanAccuracy averages the rounds' mean node accuracy and fails the
// run when it is below accFloor.
func (b *bench) meanAccuracy(rounds []roundSample) float64 {
	var sum float64
	for _, s := range rounds {
		sum += s.res.MeanAcc
	}
	acc := sum / float64(len(rounds))
	if acc < accFloor {
		b.runFailed = true
		b.note("mean accuracy %.3f over %d rounds is below the floor %.2f", acc, len(rounds), accFloor)
	}
	return acc
}

// closeSession closes the system and, for a wire fleet, checks that the
// two ends of the sockets agree: every byte the agents wrote was read by
// the cloud and every byte the cloud wrote was read by an agent.
func (b *bench) closeSession(sess session) error {
	if err := sess.close(); err != nil {
		return fmt.Errorf("closing: %w", err)
	}
	link := sess.wire()
	if link == nil {
		return nil
	}
	// Fleet.Close returns before the cloud's peer goroutines have written
	// their Bye frames, so an agent can read a Bye whose Write the cloud
	// has not finished counting yet. Give the tallies a moment to settle.
	for settle := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		up, wrote := link.cloudIn.snap(), link.nodeOut.snap()
		down, read := link.cloudOut.snap(), link.nodeIn.snap()
		agree := up.Raw == wrote.Raw && down.Raw == read.Raw
		if agree || time.Now().After(settle) {
			fmt.Fprintf(b.out, "wire totals: up %v (agents wrote %d B); down %v (agents read %d B)\n", up, wrote.Raw, down, read.Raw)
			if !agree {
				b.runFailed = true
				b.note("the two ends of the sockets disagree on the bytes moved")
			}
			return nil
		}
	}
}

func (b *bench) finish(m map[string]metric) result {
	fmt.Fprintf(b.out, "failed_ops_frac = %g (%d of %d node-rounds)\n", float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	for _, n := range b.notes {
		fmt.Fprintf(b.out, "FAILED %s\n", n)
	}
	return result{Correct: b.failed == 0 && !b.runFailed, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

func printMetric(w io.Writer, m map[string]metric, name, detail string) {
	fmt.Fprintf(w, "%s = %v %s%s\n", name, m[name].Value, m[name].Unit, detail)
}

// untraced is the end-to-end run.
func (b *bench) untraced() (result, error) {
	sess, setupTimes, bootDigests, err := b.setup(b.setups)
	if err != nil {
		return result{}, err
	}
	samples, heap0 := b.loop(sess, b.w.MinRounds, func(int) bool { return false }, func(bool) {})
	if err := b.closeSession(sess); err != nil {
		return result{}, err
	}

	var walls, cpus, rates, series []float64
	for _, s := range samples {
		walls = append(walls, s.wall)
		cpus = append(cpus, s.cpu)
		rates = append(rates, float64(s.res.captured())/s.wall)
		series = append(series, math.Round(s.wall*1e4)/1e4)
	}
	// The cloud's replay pool grows every round, so the heap, like the
	// byte and accuracy metrics, is read over the fixed minimum rounds;
	// the byte metrics skip the settling rounds at their start.
	prefix := samples[:b.w.MinRounds]
	settled := prefix[settleRounds:]
	heap := heap0
	reports := []any{}
	for _, s := range prefix {
		heap = math.Max(heap, s.heap)
		reports = append(reports, s.res.Report)
	}
	var captured float64
	var upBytes int64
	for _, s := range settled {
		captured += float64(s.res.captured())
		upBytes += s.res.upBytes()
	}
	up, down, how, err := b.wirePerRound(settled)
	if err != nil {
		return result{}, err
	}
	m := map[string]metric{
		"setup_s":                   {medianOf(setupTimes), "s"},
		"round_p50_s":               {summarize(walls).P50, "s"},
		"images_per_s":              {medianOf(rates), "1/s"},
		"cpu_s_per_round":           {medianOf(cpus), "s"},
		"live_heap_mb":              {heap, "MB"},
		"uplink_bytes_per_image":    {float64(upBytes) / captured, "B"},
		"mean_accuracy":             {b.meanAccuracy(prefix), "fraction"},
		"wire_up_bytes_per_round":   {up, "B"},
		"wire_down_bytes_per_round": {down, "B"},
	}
	out := b.out
	printMetric(out, m, "setup_s", fmt.Sprintf(" (median of %d set-ups: %.4f)", len(setupTimes), setupTimes))
	printMetric(out, m, "round_p50_s", fmt.Sprintf(" (%v)", summarize(walls)))
	printMetric(out, m, "images_per_s", fmt.Sprintf(" (median over %d rounds; calibration images count)", len(rates)))
	printMetric(out, m, "cpu_s_per_round", fmt.Sprintf(" (median over %d rounds, user+sys)", len(cpus)))
	printMetric(out, m, "live_heap_mb", fmt.Sprintf(" (largest at a boundary of rounds 0-%d, after a forced GC)", b.w.MinRounds))
	window := fmt.Sprintf("rounds %d-%d", settleRounds+1, b.w.MinRounds)
	printMetric(out, m, "uplink_bytes_per_image", " ("+window+")")
	printMetric(out, m, "mean_accuracy", fmt.Sprintf(" (mean node accuracy, averaged over rounds 1-%d)", b.w.MinRounds))
	printMetric(out, m, "wire_up_bytes_per_round", " ("+how+", "+window+")")
	printMetric(out, m, "wire_down_bytes_per_round", " ("+how+", "+window+")")
	fmt.Fprintf(out, "series round_wall_s %v\n", series)
	fmt.Fprintf(out, "determinism: %d distinct bootstrap digests over %d set-ups %v; reports of bootstrap and rounds 1-%d digest %s\n",
		distinct(bootDigests), len(bootDigests), bootDigests, b.w.MinRounds, digest(append([]any{bootDigests[len(bootDigests)-1]}, reports...)...))
	return b.finish(m), nil
}

func distinct(xs []string) int {
	seen := make(map[string]bool)
	for _, x := range xs {
		seen[x] = true
	}
	return len(seen)
}

// wirePerRound gives the mean socket bytes per round in each direction.
// Wire fleets count them on the cloud's connections. In-process systems
// have no sockets; for them it is the size of the frames the wire
// protocol would carry for the same rounds (Capture and Deploy down,
// Upload and DeployResult up), encoded with the wire package.
func (b *bench) wirePerRound(rounds []roundSample) (up, down float64, how string, err error) {
	n := float64(len(rounds))
	if b.w.wireFleet {
		for _, s := range rounds {
			up += float64(s.up.Raw)
			down += float64(s.down.Raw)
		}
		return up / n, down / n, "counted on the sockets", nil
	}
	p := b.w.params(b.seed)
	one := dataset.NewGenerator(p.Classes, b.seed).MixedSet(1, p.InSituFrac, p.Severity)[0]
	bundle, err := deploy.Pack(1, models.TinyAlex(p.Classes, b.seed), jigsaw.NewNet(p.PermClasses, b.seed), 0)
	if err != nil {
		return 0, 0, "", err
	}
	enc, err := bundle.EncodeBytes()
	if err != nil {
		return 0, 0, "", err
	}
	frameLen := func(t wire.MsgType, payload []byte) float64 {
		f, e := wire.EncodeFrame(wire.ProtoMax, t, payload)
		if e != nil && err == nil {
			err = e
		}
		return float64(len(f))
	}
	repeat := func(k int) []dataset.Sample {
		s := make([]dataset.Sample, k)
		for i := range s {
			s[i] = one
		}
		return s
	}
	capture := frameLen(wire.MsgCapture, wire.Capture{}.Encode())
	deployed := frameLen(wire.MsgDeploy, wire.Deploy{Bundle: enc}.Encode())
	result := frameLen(wire.MsgDeployResult, wire.DeployResult{}.Encode())
	for _, s := range rounds {
		for _, nd := range s.res.Nodes {
			payload, e := wire.Upload{Samples: repeat(nd.Uploaded - nd.Calib), Calib: repeat(nd.Calib)}.Encode()
			if e != nil {
				return 0, 0, "", e
			}
			up += frameLen(wire.MsgUpload, payload) + result
			down += capture + deployed
		}
	}
	return up / n, down / n, "in-process: wire frame size of the same messages", err
}

// traced is the per-layer run: the program's own telemetry registries
// on alternate rounds, then one round replayed call by call.
func (b *bench) traced() (result, error) {
	sess, _, _, err := b.setup(1)
	if err != nil {
		return result{}, err
	}
	reg := telemetry.NewRegistry()
	enable := func(on bool) {
		r := reg
		if !on {
			r = nil
		}
		tensor.EnableTelemetry(r)
		nn.EnableTelemetry(r)
		fleet.EnableTelemetry(r)
	}
	// Round 1 is a warm-up (it uploads more than later rounds); after it,
	// odd rounds are traced and even rounds are not.
	samples, _ := b.loop(sess, b.traceRounds, func(i int) bool { return i%2 == 1 }, enable)
	b.meanAccuracy(samples)
	var tWalls, uWalls, uCPU []float64
	var traced []roundSample
	for _, s := range samples[1:] {
		if s.traced {
			tWalls = append(tWalls, s.wall)
			traced = append(traced, s)
		} else {
			uWalls = append(uWalls, s.wall)
			uCPU = append(uCPU, s.cpu)
		}
	}
	tr := newTracer(fmt.Sprintf("%s/seed-%d", b.w.Name, b.seed))
	st, err := replay(b.w, b.seed, traced[len(traced)-1].res, sess, tr)
	if err != nil {
		sess.close()
		return result{}, fmt.Errorf("replay: %w", err)
	}
	if err := b.closeSession(sess); err != nil {
		return result{}, err
	}
	fmt.Fprintf(b.out, "replayed the last traced round, sized from its report:\n")
	tr.printTable(b.out)
	spanFile := filepath.Join(b.tmp, fmt.Sprintf("roundbench-spans-%s-%d.jsonl", b.w.Name, b.seed))
	if err := tr.writeJSONL(spanFile); err != nil {
		return result{}, err
	}
	fmt.Fprintf(b.out, "spans written to %s\n", spanFile)

	m := layerMetrics(reg.Snapshot(), traced, tr.byName(), st)
	var layerSelf float64
	for name, s := range tr.byName() {
		if !phaseSpans[name] {
			layerSelf += s.Self
		}
	}
	m["replay_coverage"] = metric{layerSelf / medianOf(uCPU), "ratio"}
	m["trace_overhead"] = metric{medianOf(tWalls) / medianOf(uWalls), "ratio"}
	for _, name := range perLayerNames() {
		if _, ok := m[name]; !ok {
			return result{}, fmt.Errorf("per-layer metric %s missing", name)
		}
		printMetric(b.out, m, name, "")
	}
	return b.finish(m), nil
}

// phaseSpans group layer calls; their self time is the replay's own glue.
var phaseSpans = map[string]bool{"round": true, "node.capture": true, "cloud.update": true, "node.deploy": true}

// layerKinds maps nn layer-name prefixes to the kinds reported.
var layerKinds = []struct{ prefix, kind string }{
	{"conv", "conv"}, {"pool", "pool"}, {"fc", "dense"}, {"relu", "act"},
}

// layerMetrics turns the traced rounds' registry snapshot and the
// replay's spans into the per-layer metrics. Counts from the registry
// are per traced round.
func layerMetrics(snap telemetry.Snapshot, traced []roundSample, spans map[string]spanStat, st replayStats) map[string]metric {
	rounds := float64(len(traced))
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	share := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return part / whole
	}
	m := make(map[string]metric)
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// diagnosis: forwards of the jigsaw head that were not training steps.
	var captured, jigTrainSteps float64
	for _, s := range traced {
		captured += float64(s.res.captured())
		if s.res.Trained > 0 {
			jigTrainSteps += float64(core.StepsFor(s.res.Trained))
		}
	}
	head := float64(snap.Histograms["nn_forward_us_fc_jig2"].Count)
	put("diagnosis.jigsaw_forwards_per_image", (head-jigTrainSteps)/captured, "count/image")
	put("diagnosis.measure_s", spans["diagnosis.Measure"].Self, "s/round")
	put("diagnosis.split_s", spans["diagnosis.Split"].Self, "s/round")
	put("diagnosis.calibrate_s", spans["diagnosis.Calibrate"].Self, "s/round")

	put("dataset.render_s", spans["dataset.MixedSet"].Self, "s/round")
	put("dataset.images", float64(st.Images), "count/round")

	gemms := c("tensor_gemm_calls_total") + c("tensor_gemm_small_calls_total")
	put("tensor.gemm_calls", gemms/rounds, "count/round")
	put("tensor.gemm_small_share", share(c("tensor_gemm_small_calls_total"), gemms), "share")
	put("tensor.gemm_gflop", c("tensor_gemm_flops_total")/1e9/rounds, "GFLOP/round")
	put("tensor.im2col_calls", c("tensor_im2col_calls_total")/rounds, "count/round")
	put("tensor.pack_bytes", c("tensor_pack_bytes_total")/rounds, "B/round")
	inline := c("tensor_pool_tiles_inline_total") + c("tensor_pool_chunks_inline_total")
	put("tensor.pool_inline_share", share(inline, inline+c("tensor_pool_tiles_parallel_total")+c("tensor_pool_chunks_parallel_total")), "share")
	put("tensor.workspace_miss_share", share(c("tensor_workspace_misses_total"), c("tensor_workspace_gets_total")), "share")

	for _, dir := range []string{"forward", "backward"} {
		for _, k := range layerKinds {
			put("nn."+dir+"_"+k.kind+"_s", 0, "s/round")
		}
		for name, h := range snap.Histograms {
			layer, ok := strings.CutPrefix(name, "nn_"+dir+"_us_")
			if !ok {
				continue
			}
			for _, k := range layerKinds {
				if strings.HasPrefix(layer, k.prefix) {
					key := "nn." + dir + "_" + k.kind + "_s"
					put(key, m[key].Value+h.Sum/1e6/rounds, "s/round")
				}
			}
		}
	}
	put("nn.train_steps", c("nn_train_steps_total")/rounds, "count/round")

	put("jigsaw.steps", float64(st.JigSteps), "count/round")
	put("jigsaw.step_s", spans["jigsaw.Trainer.Step"].Self, "s/round")
	put("train.steps", float64(st.TrainSteps), "count/round")
	put("train.finetune_s", spans["transfer.FineTune"].Self, "s/round")
	put("train.evaluate_s", spans["train.Evaluate"].Self, "s/round")
	put("train.eval_images", float64(st.EvalImages), "count/round")

	put("deploy.bundle_bytes", float64(st.BundleBytes), "B")
	put("deploy.pack_s", spans["deploy.Pack"].Self, "s/round")
	put("deploy.encode_s", spans["deploy.EncodeBytes"].Self, "s/round")
	put("deploy.decode_s", spans["deploy.Decode"].Self, "s/round")
	put("deploy.apply_s", spans["deploy.ApplyAtomic"].Self, "s/round")

	var up, down wireSnap
	for _, s := range traced {
		up, down = up.add(s.up, 1), down.add(s.down, 1)
	}
	for _, d := range []struct {
		dir   string
		snap  wireSnap
		types []wire.MsgType
	}{{"up", up, upTypes}, {"down", down, downTypes}} {
		names, frames, nbytes := typeTally(d.snap, d.types)
		for i, t := range names {
			put("wire.frames."+d.dir+"."+t, float64(frames[i])/rounds, "count/round")
			put("wire.bytes."+d.dir+"."+t, float64(nbytes[i])/rounds, "B/round")
		}
		put("wire.dup_frames."+d.dir, float64(d.snap.Dups)/rounds, "count/round")
	}
	put("wire.encode_s", spans["wire.EncodeFrame"].Self, "s/round")
	put("wire.decode_s", spans["wire.ReadFrame"].Self, "s/round")

	put("fleet.batches", c("fleet_batches_total")/rounds, "count/round")
	put("fleet.batch_occupancy", share(c("fleet_batched_messages_total"), c("fleet_batches_total")), "count/batch")
	put("fleet.stale_discards", c("fleet_stale_messages_total")/rounds, "count/round")
	put("fleet.spills", c("fleet_node_spills_total")/rounds, "count/round")
	put("fleet.spill_restores", c("fleet_node_spill_restores_total")/rounds, "count/round")
	put("fleet.checkpoint_bytes", float64(st.CkptBytes), "B")
	put("fleet.checkpoint_s", spans["fleet.Checkpoint"].Self, "s")
	return m
}

// perLayerNames lists every per-layer metric a traced run reports, in
// BENCHMARK.json order.
func perLayerNames() []string {
	names := []string{
		"diagnosis.jigsaw_forwards_per_image", "diagnosis.measure_s", "diagnosis.split_s", "diagnosis.calibrate_s",
		"dataset.render_s", "dataset.images",
		"tensor.gemm_calls", "tensor.gemm_small_share", "tensor.gemm_gflop", "tensor.im2col_calls",
		"tensor.pack_bytes", "tensor.pool_inline_share", "tensor.workspace_miss_share",
	}
	for _, dir := range []string{"forward", "backward"} {
		for _, k := range layerKinds {
			names = append(names, "nn."+dir+"_"+k.kind+"_s")
		}
	}
	names = append(names, "nn.train_steps",
		"jigsaw.steps", "jigsaw.step_s", "train.steps", "train.finetune_s", "train.evaluate_s", "train.eval_images",
		"deploy.bundle_bytes", "deploy.pack_s", "deploy.encode_s", "deploy.decode_s", "deploy.apply_s")
	for _, d := range []struct {
		dir   string
		types []wire.MsgType
	}{{"up", upTypes}, {"down", downTypes}} {
		for _, t := range d.types {
			names = append(names, "wire.frames."+d.dir+"."+t.String(), "wire.bytes."+d.dir+"."+t.String())
		}
		names = append(names, "wire.frames."+d.dir+".other", "wire.bytes."+d.dir+".other", "wire.dup_frames."+d.dir)
	}
	return append(names, "wire.encode_s", "wire.decode_s",
		"fleet.batches", "fleet.batch_occupancy", "fleet.stale_discards", "fleet.spills", "fleet.spill_restores",
		"fleet.checkpoint_bytes", "fleet.checkpoint_s",
		"replay_coverage", "trace_overhead")
}
