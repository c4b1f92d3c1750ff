package fsim

import (
	"fmt"

	"metaupdate/internal/arrival"
	"metaupdate/internal/scenario"
)

// ArrivalSpec re-exports the open-loop arrival-process parameters (see
// internal/arrival).
type ArrivalSpec = arrival.Spec

// Arrival process kinds.
const (
	Poisson = arrival.Poisson
	Bursty  = arrival.Bursty
)

// OpenLoopSpec configures an open-loop scenario run: which operation
// stream to offer, on what arrival schedule, and how the measurement
// window is framed. The zero value is disabled — the closed-loop status
// quo.
type OpenLoopSpec struct {
	// Scenario names the internal/scenario stream ("mail", "build",
	// "webcache").
	Scenario string
	// Arrival is the offered-load process; its PerSec enables the run.
	Arrival ArrivalSpec
	// Ops is the total number of arrivals; Warmup of them lead the
	// measured window.
	Ops    int
	Warmup int
	// MaxInFlight bounds admission (0 = unbounded open loop).
	MaxInFlight int
}

// Enabled reports whether the spec describes a run.
func (s OpenLoopSpec) Enabled() bool { return s.Arrival.Enabled() && s.Ops > 0 }

// runSpec lowers the options to the scenario driver's parameters.
func (s OpenLoopSpec) runSpec() scenario.RunSpec {
	return scenario.RunSpec{
		Arrival:     s.Arrival,
		Ops:         s.Ops,
		Warmup:      s.Warmup,
		MaxInFlight: s.MaxInFlight,
	}
}

// RunOpenLoop drives Opt.OpenLoop against the mounted file system:
// builds the scenario stream, creates its directory set, then offers
// operations on the arrival schedule until the last one completes. Call
// it on a fresh System; it composes with Shutdown like any workload.
func (s *System) RunOpenLoop() (scenario.Result, error) {
	spec := s.Opt.OpenLoop
	if !spec.Enabled() {
		return scenario.Result{}, fmt.Errorf("fsim: Options.OpenLoop is not enabled")
	}
	stream, err := scenario.New(spec.Scenario, spec.Arrival.Seed)
	if err != nil {
		return scenario.Result{}, err
	}
	target, err := scenario.SetupFS(s.Eng, s.FS, stream)
	if err != nil {
		return scenario.Result{}, err
	}
	return scenario.Drive(s.Eng, target, stream, spec.runSpec()), nil
}

// RunOpenLoop drives spec against the sharded metadata cluster (the
// metadata-only op mapping; see scenario.ClusterTarget). The spec is
// passed explicitly because DistOptions.Base describes per-node
// machines, not the client workload.
func (s *DistSystem) RunOpenLoop(spec OpenLoopSpec) (scenario.Result, error) {
	if !spec.Enabled() {
		return scenario.Result{}, fmt.Errorf("fsim: open-loop spec is not enabled")
	}
	stream, err := scenario.New(spec.Scenario, spec.Arrival.Seed)
	if err != nil {
		return scenario.Result{}, err
	}
	target, err := scenario.SetupCluster(s.Cluster, stream)
	if err != nil {
		return scenario.Result{}, err
	}
	return scenario.Drive(s.Exec, target, stream, spec.runSpec()), nil
}
