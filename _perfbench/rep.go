package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// Options selects how a repetition is run.
type Options struct {
	// Trace turns on the per-layer instrumentation.
	Trace bool
	// Quick shrinks every simulated span for smoke runs.
	Quick bool
}

// Result is one repetition's measurements.
type Result struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`

	// SetupS is host seconds spent in constructors: training, system
	// and fleet construction, spawning.
	SetupS float64 `json:"setup_s"`
	// RunS is host wall seconds spent inside Run calls.
	RunS float64 `json:"run_s"`
	// SimS is simulated seconds advanced by those Run calls.
	SimS float64 `json:"sim_s"`
	// AllocMB is Go heap allocated over setup plus run (TotalAlloc).
	AllocMB float64 `json:"alloc_mb"`
	// RefNsPerStep is the reference loop's host ns per step, the median
	// of the timings spread over the repetition (untraced repetitions
	// only; see calib.go).
	RefNsPerStep float64 `json:"ref_ns_per_step,omitempty"`

	// Runs counts Run calls attempted; Failed those whose output failed
	// a check. Errors describes each failure.
	Runs   int      `json:"runs"`
	Failed int      `json:"failed"`
	Errors []string `json:"errors,omitempty"`

	// Digest hashes every simulated output of the repetition.
	Digest string `json:"digest"`
	// Model holds the modelled (simulated, deterministic) outputs.
	Model map[string]float64 `json:"model"`
	// Layers holds the per-layer metrics of a traced repetition.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// rep accumulates one repetition's host timings and checks.
type rep struct {
	opts Options
	res  Result

	setupNs int64
	runNs   int64
	simNs   int64

	// setupByKind is host ns per constructor kind ("train", "system",
	// "spawn", "fleet_new"), kept for the traced per-layer view.
	setupByKind map[string]int64
	spawned     int

	digest []byte
	tr     *tracer // traced only

	// refNs holds the reference loop timings of an untraced repetition:
	// one before setup, one before the first Run call and then before
	// every Run call that starts refEveryNs of run time after the last
	// timing, and one after the last Run call.
	refNs    []float64
	refRunNs int64 // runNs at the last timing
}

// refEveryNs spaces reference timings during the run phase.
const refEveryNs = 100e6

// Run executes one repetition of the named workload.
func Run(name string, seed uint64, opts Options) (*Result, error) {
	r, err := runRep(name, seed, opts)
	if err != nil {
		return nil, err
	}
	return &r.res, nil
}

func runRep(name string, seed uint64, opts Options) (*rep, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames())
	}
	r := &rep{
		opts:        opts,
		setupByKind: map[string]int64{},
		res: Result{
			Workload: name, Seed: seed,
			Model: map[string]float64{},
		},
	}
	if opts.Trace {
		r.res.Layers = map[string]float64{}
		r.tr = &tracer{}
	}
	if !opts.Trace {
		r.refNs = append(r.refNs, refNsPerStep())
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := w(r, seed); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	r.res.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	r.res.SetupS = float64(r.setupNs) * 1e-9
	r.res.RunS = float64(r.runNs) * 1e-9
	r.res.SimS = float64(r.simNs) * 1e-9
	if !opts.Trace {
		r.res.RefNsPerStep = quantile(r.refNs, 0.5)
	}
	sum := sha256.Sum256(r.digest)
	r.res.Digest = hex.EncodeToString(sum[:12])
	if opts.Trace {
		r.traceSummary()
	}
	return r, nil
}

// setup times one constructor call of the given kind.
func (r *rep) setup(kind string, f func() error) error {
	t0 := time.Now()
	err := f()
	d := time.Since(t0).Nanoseconds()
	r.setupNs += d
	r.setupByKind[kind] += d
	return err
}

// run times one Run call; f returns the simulated ns it advanced.
func (r *rep) run(f func() (int64, error)) error {
	if r.tr != nil {
		r.tr.startProfile()
	} else if len(r.refNs) == 1 || r.runNs-r.refRunNs >= refEveryNs {
		r.refNs = append(r.refNs, refNsPerStep())
		r.refRunNs = r.runNs
	}
	t0 := time.Now()
	simNs, err := f()
	d := time.Since(t0).Nanoseconds()
	r.runNs += d
	r.simNs += simNs
	r.res.Runs++
	return err
}

// endRuns closes the run phase before any output is checked: the last
// reference timing, or, when traced, the end of the CPU profile.
func (r *rep) endRuns() {
	if r.tr != nil {
		r.tr.stopProfile()
	} else {
		r.refNs = append(r.refNs, refNsPerStep())
	}
}

// fail records a failed check of one run's output.
func (r *rep) fail(format string, args ...any) {
	r.res.Failed++
	r.res.Errors = append(r.res.Errors, fmt.Sprintf(format, args...))
}

// fold appends canonical text to the repetition's digest input.
func (r *rep) fold(format string, args ...any) {
	r.digest = fmt.Appendf(r.digest, format, args...)
}

// finitePositive reports whether v is a usable modelled quantity.
func finitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}
