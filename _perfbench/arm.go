package main

import (
	"math"
	"time"

	"smartbalance"
	"smartbalance/internal/contention"
	"smartbalance/internal/core"
	"smartbalance/internal/hpc"
	"smartbalance/internal/kernel"
	"smartbalance/internal/telemetry"
	"smartbalance/internal/workload"
)

// armSpec describes one node-level system of a workload.
type armSpec struct {
	cell, label string
	plat        *smartbalance.Platform
	bal         kernel.Balancer
	ctrl        *core.SmartBalance // bal itself when it is SmartBalance
	cfg         kernel.Config
	mopts       smartbalance.MachineOptions
	aware       bool // couple ctrl to the machine's contention model
	specs       func() ([]workload.ThreadSpec, error)
	span        time.Duration
}

// arm is one built system, run exactly once.
type arm struct {
	armSpec
	sys    *smartbalance.System
	timed  *timedBalancer // traced only
	stats  *kernel.RunStats
	hostNs int64 // host time of the Run call
}

// newArm builds the system and spawns its threads (setup).
func (r *rep) newArm(s armSpec) (*arm, error) {
	a := &arm{armSpec: s}
	bal := s.bal
	if r.opts.Trace {
		a.timed = &timedBalancer{inner: s.bal}
		bal = a.timed
	}
	err := r.setup("system", func() (err error) {
		a.sys, err = smartbalance.NewSystemFull(s.plat, bal, s.cfg, s.mopts)
		if err != nil {
			return err
		}
		if s.aware {
			m := a.sys.Kernel().Machine().Contention()
			s.ctrl.SetContention(m)
			if a.timed != nil {
				a.timed.cont = m
			}
		}
		if a.timed != nil && s.ctrl != nil {
			a.sys.EnableTelemetry(smartbalance.TelemetryConfig{})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = r.setup("spawn", func() error {
		specs, err := s.specs()
		if err != nil {
			return err
		}
		r.spawned += len(specs)
		return a.sys.SpawnAll(specs)
	})
	return a, err
}

// runArms makes the one Run call of every arm, then checks each run's
// output and folds it into the digest.
func (r *rep) runArms(arms []*arm) {
	errs := make([]error, len(arms))
	for i, a := range arms {
		before := r.runNs
		errs[i] = r.run(func() (int64, error) {
			return a.span.Nanoseconds(), a.sys.Run(a.span)
		})
		a.hostNs = r.runNs - before
	}
	r.endRuns()
	for i, a := range arms {
		if errs[i] != nil {
			r.fail("%s/%s run: %v", a.cell, a.label, errs[i])
			continue
		}
		if err := a.sys.Kernel().CheckInvariants(); err != nil {
			r.fail("%s/%s invariants: %v", a.cell, a.label, err)
			continue
		}
		st := a.sys.Stats()
		if ee := st.EnergyEfficiency(); !finitePositive(ee) {
			r.fail("%s/%s energy efficiency %v", a.cell, a.label, ee)
			continue
		}
		a.stats = st
		r.fold("%s/%s span=%d epochs=%d migr=%d\n", a.cell, a.label, st.SpanNs, st.Epochs, st.Migrations)
		for _, c := range st.Cores {
			r.fold(" core %d busy=%d sleep=%d instr=%d e=%x sw=%d\n",
				c.Core, c.BusyNs, c.SleepNs, c.Instr, math.Float64bits(c.EnergyJ), c.Switches)
		}
	}
	if r.opts.Trace {
		r.traceArms(arms)
	}
}

// timedBalancer times every Rebalance of the balancer it wraps and, on
// the contention-aware arm, samples the machine's shared-resource
// occupancy at each epoch. It changes no decision.
type timedBalancer struct {
	inner kernel.Balancer
	cont  *contention.Model

	ns                []int64
	pressure, bwUtil  float64
	contentionSamples int
}

func (t *timedBalancer) Name() string { return t.inner.Name() }

func (t *timedBalancer) Rebalance(k *kernel.Kernel, now kernel.Time, threads []hpc.ThreadSample, cores []hpc.CoreEpochSample) {
	if t.cont != nil {
		t.pressure += t.cont.MaxPressure()
		t.bwUtil += t.cont.MaxBWUtilization()
		t.contentionSamples++
	}
	t0 := time.Now()
	t.inner.Rebalance(k, now, threads, cores)
	t.ns = append(t.ns, time.Since(t0).Nanoseconds())
}

// SetTelemetry forwards the facade's telemetry hook to the wrapped
// controller.
func (t *timedBalancer) SetTelemetry(c *telemetry.Collector) {
	if sink, ok := t.inner.(interface{ SetTelemetry(*telemetry.Collector) }); ok {
		sink.SetTelemetry(c)
	}
}
