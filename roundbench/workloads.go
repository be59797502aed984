package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"

	"insitu/internal/core"
	"insitu/internal/fleet"
)

// nodeRound is one node's part of a round, normalized across the fleet
// and single-system report types.
type nodeRound struct {
	Captured int // calibration images included
	Uploaded int
	Calib    int // calibration images among Uploaded
	UpBytes  int64
	Failure  string // why this node-round failed; empty when it did not
}

// roundResult is one Bootstrap, RunRound or RunStage outcome.
type roundResult struct {
	Nodes   []nodeRound
	Trained int
	MeanAcc float64
	Report  any // the program's own report, hashed for determinism
}

func (r roundResult) captured() (n int) {
	for _, nd := range r.Nodes {
		n += nd.Captured
	}
	return n
}

func (r roundResult) uploaded() (n int) {
	for _, nd := range r.Nodes {
		n += nd.Uploaded
	}
	return n
}

func (r roundResult) upBytes() (n int64) {
	for _, nd := range r.Nodes {
		n += nd.UpBytes
	}
	return n
}

// session is one constructed and bootstrapped system.
type session interface {
	round(n int) roundResult
	// wire returns the socket tallies, or nil for in-process systems.
	wire() *wireLink
	// checkpoint writes the fleet checkpoint; a core system has no
	// fleet and returns errNoFleet.
	checkpoint(w io.Writer) error
	close() error
}

var errNoFleet = errors.New("no fleet to checkpoint")

// workload is one fixed shape of load. Seed is the only input that
// varies between runs, and it reaches the program only as Config.Seed.
type workload struct {
	Name     string
	Why      string
	Kind     core.SystemKind
	Nodes    int
	Boot     int // Bootstrap size (per node for fleets)
	PerRound int // captures per node per round
	EvalN    int // post-deploy evaluation images per node
	// MinRounds every run completes, whatever --seconds says; more than
	// settleRounds. Byte, upload and accuracy metrics come from exactly
	// these rounds, so they depend on the seed alone. Small fleets get
	// more rounds to average their few evaluation images over.
	MinRounds int
	fleetCfg  func(seed uint64) fleet.Config
	coreCfg   func(seed uint64) core.Config
	wireFleet bool
}

var workloads = []*workload{
	{
		Name: "fleet-insitu",
		Why:  "variant d fleet of 24 in one process; node-side diagnosis, render and eval dominate, and the shard LRU spills every round",
		Kind: core.SystemInSituAI, Nodes: 24, Boot: 8, PerRound: 32, EvalN: 16, MinRounds: 10,
		fleetCfg: func(seed uint64) fleet.Config {
			cfg := fleet.DefaultConfig(core.SystemInSituAI, 24, seed)
			cfg.Shards = 2
			cfg.MaxLiveNodes = 8
			cfg.MaxRoundSamples = 64
			cfg.MaxCalibSamples = 64
			cfg.EvalSamples = 16
			return cfg
		},
	},
	{
		Name: "cloud-retrain",
		Why:  "single variant a system; the cloud retrains on every upload, so jigsaw steps, fine-tune and conv backward dominate",
		Kind: core.SystemCloudAll, Nodes: 1, Boot: 64, PerRound: 160, EvalN: 120, MinRounds: 6,
		coreCfg: func(seed uint64) core.Config {
			return core.DefaultConfig(core.SystemCloudAll, seed)
		},
	},
	{
		Name: "wire-fleet",
		Why:  "variant d fleet of 2 agents over loopback TCP; the same protocol over real sockets, so deploy and state-blob bytes show",
		Kind: core.SystemInSituAI, Nodes: 2, Boot: 16, PerRound: 8, EvalN: 8, MinRounds: 14,
		fleetCfg: func(seed uint64) fleet.Config {
			cfg := fleet.DefaultConfig(core.SystemInSituAI, 2, seed)
			cfg.EvalSamples = 8
			return cfg
		},
		wireFleet: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// open constructs the system and bootstraps it: the set-up that setup_s
// times. Spill files go under tmp.
func (w *workload) open(seed uint64, tmp string) (session, roundResult, error) {
	switch {
	case w.coreCfg != nil:
		s := &coreSession{sys: core.NewSystem(w.coreCfg(seed))}
		return s, s.fromStage(s.sys.Bootstrap(w.Boot)), nil
	case w.wireFleet:
		return openWireFleet(w.fleetCfg(seed), w.Boot)
	default:
		cfg := w.fleetCfg(seed)
		spill, err := os.MkdirTemp(tmp, "roundbench-spill-")
		if err != nil {
			return nil, roundResult{}, fmt.Errorf("spill dir: %w", err)
		}
		cfg.SpillDir = spill
		s := &fleetSession{f: fleet.New(cfg), spill: spill}
		return s, fromFleet(s.f.Bootstrap(w.Boot)), nil
	}
}

// fromFleet normalizes a fleet round report and marks every node-round
// that the correctness rules count as failed.
func fromFleet(rep fleet.RoundReport) roundResult {
	r := roundResult{
		Trained: rep.Trained, MeanAcc: rep.MeanAccuracy, Report: rep,
	}
	for _, nr := range rep.Nodes {
		nd := nodeRound{
			Captured: nr.Captured, Uploaded: nr.Uploaded, Calib: nr.CalibUploaded,
			UpBytes: nr.UploadedBytes,
		}
		switch {
		case nr.TimedOut:
			nd.Failure = "timed out"
		case nr.Disconnected:
			nd.Failure = "disconnected"
		case nr.UploadFailed:
			nd.Failure = "upload lost"
		case nr.DeployFailed:
			nd.Failure = "deploy failed"
		case nr.ModelVersion != rep.CloudVersion:
			nd.Failure = fmt.Sprintf("runs v%d, cloud published v%d", nr.ModelVersion, rep.CloudVersion)
		}
		r.Nodes = append(r.Nodes, nd)
	}
	return r
}

type fleetSession struct {
	f     *fleet.Fleet
	spill string
}

func (s *fleetSession) round(n int) roundResult      { return fromFleet(s.f.RunRound(n)) }
func (s *fleetSession) wire() *wireLink              { return nil }
func (s *fleetSession) checkpoint(w io.Writer) error { return s.f.Checkpoint(w) }
func (s *fleetSession) close() error {
	s.f.Close()
	return os.RemoveAll(s.spill)
}

type coreSession struct{ sys *core.System }

func (s *coreSession) fromStage(rep core.StageReport) roundResult {
	nd := nodeRound{
		Captured: rep.Captured, Uploaded: rep.Uploaded, Calib: rep.CalibUploaded,
		UpBytes: rep.UploadedBytes,
	}
	switch {
	case rep.DeployFailed:
		nd.Failure = "deploy failed"
	case rep.ModelVersion != s.sys.CloudVersion():
		nd.Failure = fmt.Sprintf("runs v%d, cloud published v%d", rep.ModelVersion, s.sys.CloudVersion())
	}
	return roundResult{
		Nodes: []nodeRound{nd}, Trained: rep.Trained, MeanAcc: rep.NodeAccuracy, Report: rep,
	}
}

func (s *coreSession) round(n int) roundResult    { return s.fromStage(s.sys.RunStage(n)) }
func (s *coreSession) wire() *wireLink            { return nil }
func (s *coreSession) checkpoint(io.Writer) error { return errNoFleet }
func (s *coreSession) close() error               { return nil }

// wireSession is a Listen'd fleet whose node agents run on goroutines of
// this process, one loopback TCP connection each.
type wireSession struct {
	f      *fleet.Fleet
	link   *wireLink
	agents sync.WaitGroup
	errs   []error
}

func openWireFleet(cfg fleet.Config, boot int) (session, roundResult, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, roundResult{}, fmt.Errorf("listen: %w", err)
	}
	s := &wireSession{link: &wireLink{}, errs: make([]error, cfg.Nodes)}
	addr := ln.Addr().String()
	for id := 0; id < cfg.Nodes; id++ {
		s.agents.Add(1)
		go func(id int) {
			defer s.agents.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				s.errs[id] = err
				return
			}
			defer conn.Close()
			s.errs[id] = fleet.RunAgent(newCountingConn(conn, &s.link.nodeIn, &s.link.nodeOut), id)
		}(id)
	}
	s.f, err = fleet.Listen(cfg, &countingListener{Listener: ln, in: &s.link.cloudIn, out: &s.link.cloudOut})
	if err != nil {
		// Listen closed the listener; the agents' handshakes time out.
		s.agents.Wait()
		return nil, roundResult{}, err
	}
	return s, fromFleet(s.f.Bootstrap(boot)), nil
}

func (s *wireSession) round(n int) roundResult      { return fromFleet(s.f.RunRound(n)) }
func (s *wireSession) wire() *wireLink              { return s.link }
func (s *wireSession) checkpoint(w io.Writer) error { return s.f.Checkpoint(w) }

// close says Bye to every agent and waits for all of them to return.
func (s *wireSession) close() error {
	s.f.Close()
	s.agents.Wait()
	return errors.Join(s.errs...)
}
