package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"insitu/internal/core"
	"insitu/internal/dataset"
	"insitu/internal/deploy"
	"insitu/internal/diagnosis"
	"insitu/internal/jigsaw"
	"insitu/internal/models"
	"insitu/internal/tensor"
	"insitu/internal/train"
	"insitu/internal/transfer"
	"insitu/internal/wire"
)

// span is one timed call into a layer, recorded from outside the
// program. Self time is the duration minus what child spans covered.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for the root
	Trace  string  `json:"trace"`  // shared by every span of one replayed round
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

// tracer records nested spans on one goroutine and keeps them in memory.
type tracer struct {
	trace string
	t0    time.Time
	spans []span
	stack []int     // open span ids
	child []float64 // seconds covered by children, parallel to stack
}

func newTracer(trace string) *tracer { return &tracer{trace: trace, t0: time.Now()} }

func (t *tracer) span(name string, fn func()) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	start := time.Since(t.t0).Seconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: t.trace, Name: name, Start: start})
	t.stack = append(t.stack, id)
	t.child = append(t.child, 0)
	fn()
	end := time.Since(t.t0).Seconds()
	top := len(t.stack) - 1
	covered := t.child[top]
	t.stack, t.child = t.stack[:top], t.child[:top]
	t.spans[id].End = end
	t.spans[id].Self = end - start - covered
	if top > 0 {
		t.child[top-1] += end - start
	}
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count int
	Self  float64
}

func (t *tracer) byName() map[string]spanStat {
	out := make(map[string]spanStat)
	for _, s := range t.spans {
		st := out[s.Name]
		st.Count++
		st.Self += s.Self
		out[s.Name] = st
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func (t *tracer) printTable(w io.Writer) {
	stats := t.byName()
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-22s %7s %10s\n", "span", "calls", "self_s")
	for _, n := range names {
		fmt.Fprintf(w, "%-22s %7d %10.4f\n", n, stats[n].Count, stats[n].Self)
	}
}

// params are the Config fields the replay and the wire model need.
type params struct {
	Classes, PermClasses, Probes, SharedConvs int
	InSituFrac, Severity                      float64
	MaxCalib                                  int // 0 = uncapped
}

func (w *workload) params(seed uint64) params {
	if w.coreCfg != nil {
		c := w.coreCfg(seed)
		return params{c.Classes, c.PermClasses, c.Probes, c.SharedConvs, c.InSituFrac, c.Severity, 0}
	}
	c := w.fleetCfg(seed)
	return params{c.Classes, c.PermClasses, c.Probes, c.SharedConvs, c.InSituFrac, c.Severity, c.MaxCalibSamples}
}

// calibSize is how many calibration images a node renders per round:
// the report's count under node diagnosis, otherwise the rule both the
// fleet and core apply (a tenth of the capture, at least 12).
func calibSize(kind core.SystemKind, nd nodeRound) (capture, calib int) {
	if kind.UsesNodeDiagnosis() {
		return nd.Captured - nd.Calib, nd.Calib
	}
	calib = nd.Captured / 10
	if calib < 12 {
		calib = 12
	}
	return nd.Captured, calib
}

// replayStats are the counts the replay observed alongside its spans.
type replayStats struct {
	Images      int // rendered by dataset
	EvalImages  int // passed to train.Evaluate
	JigSteps    int
	TrainSteps  int // fine-tune steps
	BundleBytes int
	CkptBytes   int
}

// replay re-executes one round of w layer by layer, sized from that
// round's report, with a span around each call into a layer's public
// functions. Networks are fresh copies of the workload's architectures:
// the cost of every call depends on shapes and counts, not on weights.
// The only call made on the live system is the closing checkpoint.
func replay(w *workload, seed uint64, last roundResult, sess session, tr *tracer) (replayStats, error) {
	var st replayStats
	var err error
	keep := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	p := w.params(seed)
	perms := jigsaw.NewPermSet(p.PermClasses, seed+1)
	cloudJig, nodeJig := jigsaw.NewNet(p.PermClasses, seed+2), jigsaw.NewNet(p.PermClasses, seed+2)
	cloudInfer, nodeInfer := models.TinyAlex(p.Classes, seed+3), models.TinyAlex(p.Classes, seed+3)
	jigTr := jigsaw.NewTrainer(cloudJig, perms, 0.005, seed+5)
	cloudDiag := diagnosis.NewJigsawDiagnoser(cloudJig, perms, p.Probes, seed+6)
	nodeDiag := diagnosis.NewJigsawDiagnoser(nodeJig, perms, p.Probes, seed+7)
	gen := dataset.NewGenerator(p.Classes, seed+8)
	locked := 0
	if w.Kind.UsesWeightSharing() {
		locked = p.SharedConvs
	}
	render := func(n int) (s []dataset.Sample) {
		tr.span("dataset.MixedSet", func() { s = gen.MixedSet(n, p.InSituFrac, p.Severity) })
		st.Images += n
		return s
	}
	evaluate := func(net func() float64, n int) (acc float64) {
		tr.span("train.Evaluate", func() { acc = net() })
		st.EvalImages += n
		return acc
	}

	tr.span("round", func() {
		var pool, calibs []dataset.Sample
		tr.span("node.capture", func() {
			for _, nd := range last.Nodes {
				n, calibN := calibSize(w.Kind, nd)
				capture := render(n)
				tr.span("diagnosis.Measure", func() { diagnosis.Measure(nodeDiag, nodeInfer, capture) })
				calib := render(calibN)
				upload := capture
				if w.Kind.UsesNodeDiagnosis() {
					tr.span("diagnosis.Split", func() { diagnosis.Split(nodeDiag, capture) })
					// Upload what the real round did: the report's count of
					// unrecognized images plus the calibration set.
					upload = append(append([]dataset.Sample(nil), capture[:nd.Uploaded-nd.Calib]...), calib...)
				}
				if w.wireFleet {
					var frame []byte
					tr.span("wire.EncodeFrame", func() {
						payload, e := wire.Upload{Uploaded: uint32(nd.Uploaded), Samples: upload[:len(upload)-len(calib)], Calib: calib}.Encode()
						keep(e)
						frame, e = wire.EncodeFrame(wire.ProtoMax, wire.MsgUpload, payload)
						keep(e)
					})
					tr.span("wire.ReadFrame", func() {
						_, _, payload, e := wire.ReadFrame(bytes.NewReader(frame))
						keep(e)
						_, e = wire.DecodeUpload(payload)
						keep(e)
					})
				}
				pool = append(pool, upload...)
				calibs = append(calibs, calib...)
			}
		})
		if p.MaxCalib > 0 && len(calibs) > p.MaxCalib {
			calibs = calibs[:p.MaxCalib]
		}

		var bundle *deploy.Bundle
		var deployFrame []byte
		tr.span("cloud.update", func() {
			if t := last.Trained; t > 0 && len(pool) > 0 {
				trainSet := make([]dataset.Sample, t)
				for i := range trainSet {
					trainSet[i] = pool[i%len(pool)]
				}
				prefixes := transfer.ConvPrefixes(locked)
				if locked > 0 {
					cloudJig.FreezeLayers(prefixes...)
				}
				const batch = 16
				for step := 0; step < core.StepsFor(t); step++ {
					i0 := (step * batch) % t
					end := min(i0+batch, t)
					x := make([]*tensor.Tensor, 0, end-i0)
					for _, s := range trainSet[i0:end] {
						x = append(x, s.Image)
					}
					tr.span("jigsaw.Trainer.Step", func() { jigTr.Step(x) })
					st.JigSteps++
				}
				if locked > 0 {
					cloudJig.UnfreezeLayers(prefixes...)
				}
				// The fine-tune mixes the fresh set with as many replayed
				// samples from the cloud's pool.
				mixed := append(trainSet[:t:t], pool[:min(t, len(pool))]...)
				cfg := train.DefaultConfig(core.StepsFor(len(mixed)))
				cfg.LR = 0.005
				tr.span("transfer.FineTune", func() { transfer.FineTune(cloudInfer, mixed, cfg, locked) })
				st.TrainSteps += cfg.Steps
			}
			if len(calibs) > 0 {
				errRate := 1 - evaluate(func() float64 { return train.Evaluate(cloudInfer, calibs) }, len(calibs))
				tr.span("diagnosis.Calibrate", func() { diagnosis.Calibrate(cloudDiag, calibs, core.CalibTarget(errRate)) })
			}
			tr.span("deploy.Pack", func() {
				var e error
				bundle, e = deploy.Pack(1, cloudInfer, cloudJig, cloudDiag.Threshold())
				keep(e)
			})
			if bundle != nil && w.wireFleet {
				// A wire fleet encodes the bundle once and frames it.
				var enc []byte
				tr.span("deploy.EncodeBytes", func() {
					var e error
					enc, e = bundle.EncodeBytes()
					keep(e)
				})
				tr.span("wire.EncodeFrame", func() {
					var e error
					deployFrame, e = wire.EncodeFrame(wire.ProtoMax, wire.MsgDeploy, wire.Deploy{Round: 1, Bundle: enc}.Encode())
					keep(e)
				})
			}
		})
		if bundle == nil {
			return
		}

		tr.span("node.deploy", func() {
			for range last.Nodes {
				b := bundle
				if w.wireFleet {
					var enc []byte
					tr.span("wire.ReadFrame", func() {
						_, _, payload, e := wire.ReadFrame(bytes.NewReader(deployFrame))
						keep(e)
						d, e := wire.DecodeDeploy(payload)
						keep(e)
						enc = d.Bundle
					})
					tr.span("deploy.Decode", func() {
						var e error
						b, e = deploy.Decode(bytes.NewReader(enc))
						keep(e)
					})
				}
				if b == nil {
					return
				}
				// deploy.Deliver: encode, decode on the node, apply.
				var enc []byte
				tr.span("deploy.EncodeBytes", func() {
					var e error
					enc, e = b.EncodeBytes()
					keep(e)
				})
				st.BundleBytes = len(enc)
				var got *deploy.Bundle
				tr.span("deploy.Decode", func() {
					var e error
					got, e = deploy.Decode(bytes.NewReader(enc))
					keep(e)
				})
				if got == nil {
					return
				}
				tr.span("deploy.ApplyAtomic", func() { keep(got.ApplyAtomic(0, nodeInfer, nodeJig, nodeDiag)) })
				eval := render(w.EvalN)
				evaluate(func() float64 { return train.Evaluate(nodeInfer, eval) }, len(eval))
			}
		})

		if w.coreCfg == nil {
			var buf bytes.Buffer
			tr.span("fleet.Checkpoint", func() { keep(sess.checkpoint(&buf)) })
			st.CkptBytes = buf.Len()
		}
	})
	return st, err
}
