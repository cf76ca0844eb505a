package main

import (
	"math"
	"sort"
	"time"

	"smartbalance"
	"smartbalance/internal/arch"
	"smartbalance/internal/contention"
	"smartbalance/internal/core"
	"smartbalance/internal/kernel"
	"smartbalance/internal/workload"
)

// A workload builds, runs and checks one repetition for a seed. Every
// workload is an A/B pair on identical inputs: the arm whose
// energy-aware mechanism it exercises against a baseline arm, so each
// reports sim_ee_gain_min, the smallest modelled energy-efficiency
// ratio of the first over the second across its cells.
type workloadFunc func(r *rep, seed uint64) error

var workloads = map[string]workloadFunc{
	"paper-f4b":      paperF4b,
	"contended-hexa": contendedHexa,
	"kernel-scale":   kernelScale,
	"fleet-bursty":   fleetBursty,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Workload sizes. Each is a property of the workload, never of the
// host: a repetition always simulates the same amount of work.
const (
	// f4bSeeds consecutive seeds make one paper-f4b repetition; each
	// seed trains its own predictor and runs the whole grid.
	f4bSeeds   = 30
	f4bThreads = 8
	f4bSpan    = 1200 * time.Millisecond // the paper's scenario span

	// hexaSeeds consecutive seeds, each one long span per arm.
	hexaSeeds = 5
	hexaSpan  = 100 * time.Second

	scaleCores   = 1024
	scaleThreads = 16384
	scaleSpan    = 1 * time.Second

	fleetSeeds    = 8
	fleetWindowNs = 3.125e9
	fleetArrival  = "bursty:rate=300,burst=6,pburst=0.08,pcalm=0.25"
)

// f4bWorkloads is the Fig. 4(b) grid: seven PARSEC benchmarks and the
// Table 3 mixes.
var f4bWorkloads = append([]string{
	"blackscholes", "bodytrack", "canneal", "streamcluster", "swaptions",
	"x264H-crew", "x264L-bow",
}, smartbalance.MixNames()...)

// A14 antagonist mix: two cache-sensitive victims, one streaming and
// one cache-resident antagonist.
const (
	hexaVictim    = "synth:phases=1,ins=80,ilp=3,mem=0.3,wsd=384"
	hexaStreaming = "synth:phases=1,ins=120,ilp=2,mem=0.4,wsd=2048,ant=1"
	hexaCacheRes  = "synth:phases=1,ins=120,ilp=2,mem=0.4,wsd=2048,ant=2"
)

// paperF4b runs the Fig. 4(b) grid at 8 threads under a fresh
// SmartBalance controller and under vanilla, for f4bSeeds seeds.
func paperF4b(r *rep, seed uint64) error {
	span, names, seeds := f4bSpan, f4bWorkloads, uint64(f4bSeeds)
	if r.opts.Quick {
		span, names, seeds = 300*time.Millisecond, []string{"swaptions", "Mix1"}, 1
	}
	plat := smartbalance.QuadHMP()
	var arms []*arm
	for s := seed; s < seed+seeds; s++ {
		pred, err := r.train(plat.Types, s)
		if err != nil {
			return err
		}
		for _, name := range names {
			specs := func() ([]workload.ThreadSpec, error) {
				if isMix(name) {
					return smartbalance.Mix(name, f4bThreads, s)
				}
				return smartbalance.Benchmark(name, f4bThreads, s)
			}
			cfg := kernel.DefaultConfig()
			cfg.Seed = s
			base, err := r.newArm(armSpec{cell: name, label: "vanilla", plat: plat,
				bal: smartbalance.NewVanillaBalancer(), cfg: cfg, specs: specs, span: span})
			if err != nil {
				return err
			}
			ctrl, err := r.controller(pred, s)
			if err != nil {
				return err
			}
			test, err := r.newArm(armSpec{cell: name, label: "smartbalance", plat: plat,
				bal: ctrl, ctrl: ctrl, cfg: cfg, specs: specs, span: span})
			if err != nil {
				return err
			}
			arms = append(arms, test, base)
		}
	}
	r.runArms(arms)
	r.pairGains(arms)
	return nil
}

func isMix(name string) bool {
	for _, m := range smartbalance.MixNames() {
		if m == name {
			return true
		}
	}
	return false
}

// contendedHexa runs the A14 antagonist mix on HexaDualCluster with the
// contention model on, under a contention-aware SmartBalance and under
// vanilla, each over one long span, for hexaSeeds seeds.
func contendedHexa(r *rep, seed uint64) error {
	span, seeds := hexaSpan, uint64(hexaSeeds)
	if r.opts.Quick {
		span, seeds = 3*time.Second, 1
	}
	plat := arch.HexaDualCluster()
	mopts := smartbalance.MachineOptions{Contention: contention.Spec{Enabled: true}}
	var arms []*arm
	for s := seed; s < seed+seeds; s++ {
		pred, err := r.train(plat.Types, s)
		if err != nil {
			return err
		}
		specs := func() ([]workload.ThreadSpec, error) {
			var all []workload.ThreadSpec
			for _, t := range []struct {
				spec string
				n    int
			}{{hexaVictim, 2}, {hexaStreaming, 1}, {hexaCacheRes, 1}} {
				more, err := workload.Synth(t.spec, t.n, s)
				if err != nil {
					return nil, err
				}
				all = append(all, more...)
			}
			return all, nil
		}
		cfg := kernel.DefaultConfig()
		cfg.Seed = s
		ctrl, err := r.controller(pred, s)
		if err != nil {
			return err
		}
		test, err := r.newArm(armSpec{cell: "a14", label: "aware", plat: plat, bal: ctrl, ctrl: ctrl,
			cfg: cfg, mopts: mopts, aware: true, specs: specs, span: span})
		if err != nil {
			return err
		}
		base, err := r.newArm(armSpec{cell: "a14", label: "vanilla", plat: plat,
			bal: smartbalance.NewVanillaBalancer(), cfg: cfg, mopts: mopts, specs: specs, span: span})
		if err != nil {
			return err
		}
		arms = append(arms, test, base)
	}
	r.runArms(arms)
	r.pairGains(arms)
	return nil
}

// kernelScale runs 16,384 Mix1 threads on a 1024-core ScalingHMP under
// vanilla, against the same machine with fork placement only (pinned).
// Neither arm runs SmartBalance: this workload measures the substrate.
func kernelScale(r *rep, seed uint64) error {
	span, cores, threads := scaleSpan, scaleCores, scaleThreads
	if r.opts.Quick {
		span, cores, threads = 300*time.Millisecond, 64, 1024
	}
	plat, err := smartbalance.ScalingHMP(cores)
	if err != nil {
		return err
	}
	specs := func() ([]workload.ThreadSpec, error) {
		return smartbalance.Mix("Mix1", threads/2, seed)
	}
	cfg := kernel.DefaultConfig()
	cfg.Seed = seed
	test, err := r.newArm(armSpec{cell: "scale", label: "vanilla", plat: plat,
		bal: smartbalance.NewVanillaBalancer(), cfg: cfg, specs: specs, span: span})
	if err != nil {
		return err
	}
	base, err := r.newArm(armSpec{cell: "scale", label: "pinned", plat: plat,
		bal: smartbalance.NewPinnedBalancer(), cfg: cfg, specs: specs, span: span})
	if err != nil {
		return err
	}
	arms := []*arm{test, base}
	r.runArms(arms)
	r.pairGains(arms)
	return nil
}

// pairGains folds arms laid out as (test, base) pairs into the modelled
// outputs: per cell, the geometric mean over seeds of EE(test)/EE(base);
// sim_ee_gain_min is the smallest cell; machine.instr_per_j is the test
// arms' pooled energy efficiency.
func (r *rep) pairGains(arms []*arm) {
	logSum := map[string]float64{}
	count := map[string]int{}
	var cells []string
	var instr, joules float64
	for i := 0; i+1 < len(arms); i += 2 {
		test, base := arms[i], arms[i+1]
		if test.stats == nil || base.stats == nil {
			continue
		}
		g := test.stats.EnergyEfficiency() / base.stats.EnergyEfficiency()
		if count[test.cell] == 0 {
			cells = append(cells, test.cell)
		}
		logSum[test.cell] += math.Log(g)
		count[test.cell]++
		instr += float64(test.stats.TotalInstructions())
		joules += test.stats.TotalEnergyJ()
	}
	minGain := math.Inf(1)
	for _, c := range cells {
		minGain = math.Min(minGain, math.Exp(logSum[c]/float64(count[c])))
	}
	if len(cells) > 0 {
		r.res.Model["sim_ee_gain_min"] = minGain
	}
	if joules > 0 {
		r.res.Model["machine.instr_per_j"] = instr / joules
	}
}

// fleetBursty runs the fleet_check cell (8 nodes, quad,biglittle,
// SmartBalance nodes, bursty MMPP arrivals) with a stretched admission
// window under the energy-aware dispatcher, against round-robin
// dispatch of the identical request stream, for fleetSeeds seeds.
func fleetBursty(r *rep, seed uint64) error {
	window, seeds := int64(fleetWindowNs), uint64(fleetSeeds)
	if r.opts.Quick {
		window, seeds = 500e6, 1
	}
	type pair struct {
		fleets  [2]*smartbalance.Fleet // energy-aware, round-robin
		results [2]*smartbalance.FleetResult
		hostNs  int64 // the energy-aware run
	}
	var pairs []*pair
	for s := seed; s < seed+seeds; s++ {
		p := &pair{}
		// The round-robin fleet is built second: it reuses the predictors
		// the first construction trained, identically in every repetition.
		for i, policy := range []smartbalance.DispatchPolicy{
			smartbalance.DispatchEnergyAware, smartbalance.DispatchRoundRobin,
		} {
			cfg := smartbalance.DefaultFleetConfig()
			cfg.Nodes = 8
			cfg.Profile = "quad,biglittle"
			cfg.Balancer = "smartbalance"
			cfg.Policy = string(policy)
			cfg.Arrival = fleetArrival
			cfg.Seed = s
			cfg.DurationNs = window
			cfg.Workers = 1
			err := r.setup("fleet_new", func() (err error) {
				p.fleets[i], err = smartbalance.NewFleet(cfg)
				return err
			})
			if err != nil {
				return err
			}
		}
		pairs = append(pairs, p)
	}
	for _, p := range pairs {
		for i, f := range p.fleets {
			before := r.runNs
			err := r.run(func() (int64, error) {
				res, err := f.Run()
				if err != nil {
					return 0, err
				}
				p.results[i] = res
				return res.ElapsedNs, nil
			})
			if i == 0 {
				p.hostNs = r.runNs - before
			}
			if err != nil {
				r.fail("fleet %d run: %v", i, err)
			}
		}
	}
	r.endRuns()

	var logGain, joules, p99, hostNs float64
	var completed, requests, inflight int
	for _, p := range pairs {
		for _, res := range p.results {
			if res == nil {
				continue
			}
			if res.Requests < 1 || res.Completed+res.InFlight != res.Requests {
				r.fail("fleet %s accounting: requests=%d completed=%d inflight=%d",
					res.Policy, res.Requests, res.Completed, res.InFlight)
			}
			if !finitePositive(res.JoulesPerRequest) || !finitePositive(res.P99Ms) {
				r.fail("fleet %s: J/req %v, p99 %v ms", res.Policy, res.JoulesPerRequest, res.P99Ms)
			}
			r.fold("fleet %s req=%d done=%d inflight=%d elapsed=%d e=%x p50=%x p99=%x max=%x\n",
				res.Policy, res.Requests, res.Completed, res.InFlight, res.ElapsedNs,
				math.Float64bits(res.EnergyJ), math.Float64bits(res.P50Ms),
				math.Float64bits(res.P99Ms), math.Float64bits(res.MaxMs))
			for _, n := range res.PerNode {
				r.fold(" node %d %s req=%d done=%d e=%x p99=%x\n", n.ID, n.Platform,
					n.Requests, n.Completed, math.Float64bits(n.EnergyJ), math.Float64bits(n.P99Ms))
			}
		}
		energy, rr := p.results[0], p.results[1]
		if energy == nil || rr == nil {
			return nil
		}
		logGain += math.Log(rr.JoulesPerRequest / energy.JoulesPerRequest)
		joules += energy.EnergyJ
		completed += energy.Completed
		requests += energy.Requests
		inflight += energy.InFlight
		p99 += energy.P99Ms
		hostNs += float64(p.hostNs)
	}
	n := float64(len(pairs))
	r.res.Model["sim_ee_gain_min"] = math.Exp(logGain / n)
	r.res.Model["fleet.j_per_req"] = joules / float64(completed)
	r.res.Model["fleet.p99_ms"] = p99 / n
	if r.opts.Trace {
		lay := r.res.Layers
		lay["fleet.requests"] = float64(requests)
		lay["fleet.inflight_at_deadline"] = float64(inflight)
		lay["fleet.host_us_per_request"] = hostNs / 1e3 / float64(requests)
	}
	return nil
}

// train fits a predictor for the type set (setup).
func (r *rep) train(types []smartbalance.CoreType, seed uint64) (*core.Predictor, error) {
	var pred *core.Predictor
	err := r.setup("train", func() (err error) {
		pred, err = smartbalance.TrainPredictor(types, seed)
		return err
	})
	return pred, err
}

// controller builds a fresh SmartBalance controller (setup). Untraced
// repetitions give it a frozen clock, so the phase timers cost nothing
// and Overhead stays zero; traced ones measure real host time.
func (r *rep) controller(pred *core.Predictor, seed uint64) (*core.SmartBalance, error) {
	var ctrl *core.SmartBalance
	err := r.setup("system", func() (err error) {
		cfg := smartbalance.DefaultSmartBalanceConfig()
		cfg.Anneal.Seed = seed
		cfg.Clock = smartbalance.NewFakeClock(0)
		if r.opts.Trace {
			cfg.Clock = smartbalance.RealClock()
		}
		ctrl, err = smartbalance.NewSmartBalanceController(pred, cfg)
		return err
	})
	return ctrl, err
}
