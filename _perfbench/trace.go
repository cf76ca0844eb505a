package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"

	"smartbalance/internal/telemetry"
)

// layerNames lists every per-layer metric a traced repetition reports,
// in BENCHMARK.json order. A metric whose layer does not run in a
// workload reads 0 there.
var layerNames = []string{
	"setup.train_ms", "setup.system_ms", "setup.spawn_us_per_thread", "setup.fleet_new_ms",
	"core.rebalance_us_p50", "core.rebalance_us_p99", "core.share",
	"core.sense_us", "core.predict_us", "core.anneal_us", "core.migrate_us",
	"core.migrations_per_epoch", "core.anneal_iters_per_epoch", "core.anneal_accept_ratio",
	"core.plans_held_ratio",
	"balancer.rebalance_us_p50", "balancer.share",
	"kernel.share", "kernel.slices_per_sim_s", "kernel.host_ns_per_slice",
	"kernel.cpu_share", "machine.cpu_share", "hpc.cpu_share", "contention.cpu_share",
	"pelt.cpu_share", "fixedpt.cpu_share", "core.cpu_share", "fleet.cpu_share",
	"balancer.cpu_share", "runtime.cpu_share", "other.cpu_share",
	"runtime.gc_cpu_share", "runtime.heap_live_mb",
	"fleet.host_us_per_request", "fleet.requests", "fleet.inflight_at_deadline",
	"fleet.j_per_req", "fleet.p99_ms",
	"machine.instr_per_j",
	"contention.max_pressure_mean", "contention.max_bw_util_mean",
}

// tracer holds a traced repetition's instrumentation: the CPU profile
// of the run phase, runtime/metrics readings around it, and the sums
// collected from every arm's timed balancer, phase overheads and
// telemetry.
type tracer struct {
	profiling bool
	profile   bytes.Buffer
	gc0, cpu0 float64
	gcCPU     float64
	totalCPU  float64
	heapLive  float64

	coreUs, balUs []float64
	coreNs, balNs int64
	nodeRunNs     int64
	nodeSimNs     int64
	switches      int64

	senseNs, predictNs, annealNs, migrateNs int64
	epochs, migrations                      int
	iters, accepted, held                   int64

	pressure, bwUtil float64
	contSamples      int
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/live:bytes"},
}

func readRuntime() (gc, total, live float64) {
	metrics.Read(runtimeSamples)
	f := func(i int) float64 {
		switch v := runtimeSamples[i].Value; v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return f(0), f(1), f(2)
}

// startProfile begins the run-phase CPU profile at the first Run call.
func (t *tracer) startProfile() {
	if t.profiling {
		return
	}
	t.gc0, t.cpu0, _ = readRuntime()
	if err := pprof.StartCPUProfile(&t.profile); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
		return
	}
	t.profiling = true
}

// stopProfile ends the run-phase profile and reads the runtime
// metrics that bracket it.
func (t *tracer) stopProfile() {
	if !t.profiling {
		return
	}
	pprof.StopCPUProfile()
	t.profiling = false
	gc, total, live := readRuntime()
	t.gcCPU, t.totalCPU, t.heapLive = gc-t.gc0, total-t.cpu0, live
}

// traceArms collects the instrumentation of the node-level arms.
func (r *rep) traceArms(arms []*arm) {
	t := r.tr
	for _, a := range arms {
		t.nodeRunNs += a.hostNs
		t.nodeSimNs += a.span.Nanoseconds()
		if a.stats != nil {
			for _, c := range a.stats.Cores {
				t.switches += c.Switches
			}
		}
		var total int64
		for _, ns := range a.timed.ns {
			total += ns
			if a.ctrl != nil {
				t.coreUs = append(t.coreUs, float64(ns)/1e3)
			} else {
				t.balUs = append(t.balUs, float64(ns)/1e3)
			}
		}
		t.pressure += a.timed.pressure
		t.bwUtil += a.timed.bwUtil
		t.contSamples += a.timed.contentionSamples
		if a.ctrl == nil {
			t.balNs += total
			continue
		}
		t.coreNs += total
		o := a.ctrl.Overhead()
		t.senseNs += o.Sense.Nanoseconds()
		t.predictNs += o.Predict.Nanoseconds()
		t.annealNs += o.Optimize.Nanoseconds()
		t.migrateNs += o.Migrate.Nanoseconds()
		t.epochs += o.Epochs
		t.migrations += o.Migrations
		tr := a.sys.Telemetry().Trace()
		for _, ep := range tr.Epochs {
			for _, sp := range ep.Spans {
				if sp.Phase != telemetry.PhaseDecide {
					continue
				}
				for _, at := range sp.Attrs {
					n, _ := strconv.ParseInt(at.V, 10, 64)
					switch at.K {
					case "iterations":
						t.iters += n
					case "accepted":
						t.accepted += n
					}
				}
			}
		}
		for _, m := range tr.Metrics {
			if m.Key == "smartbalance_plans_held_total" {
				t.held += int64(m.Value)
			}
		}
	}
}

// traceSummary turns the collected instrumentation into the per-layer
// metrics.
func (r *rep) traceSummary() {
	t, lay := r.tr, r.res.Layers
	t.stopProfile()
	for _, n := range layerNames {
		if _, ok := lay[n]; !ok {
			lay[n] = 0
		}
	}
	for k, v := range r.res.Model {
		if strings.Contains(k, ".") {
			lay[k] = v
		}
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	ratio := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	lay["setup.train_ms"] = ms(r.setupByKind["train"])
	lay["setup.system_ms"] = ms(r.setupByKind["system"])
	lay["setup.fleet_new_ms"] = ms(r.setupByKind["fleet_new"])
	lay["setup.spawn_us_per_thread"] = ratio(float64(r.setupByKind["spawn"])/1e3, float64(r.spawned))

	lay["core.rebalance_us_p50"] = quantile(t.coreUs, 0.50)
	lay["core.rebalance_us_p99"] = quantile(t.coreUs, 0.99)
	lay["balancer.rebalance_us_p50"] = quantile(t.balUs, 0.50)
	run := float64(t.nodeRunNs)
	lay["core.share"] = ratio(float64(t.coreNs), run)
	lay["balancer.share"] = ratio(float64(t.balNs), run)
	kernelNs := float64(t.nodeRunNs - t.coreNs - t.balNs)
	lay["kernel.share"] = ratio(kernelNs, run)
	lay["kernel.slices_per_sim_s"] = ratio(float64(t.switches), float64(t.nodeSimNs)*1e-9)
	lay["kernel.host_ns_per_slice"] = ratio(kernelNs, float64(t.switches))

	ep := float64(t.epochs)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	lay["core.sense_us"] = ratio(us(t.senseNs), ep)
	lay["core.predict_us"] = ratio(us(t.predictNs), ep)
	lay["core.anneal_us"] = ratio(us(t.annealNs), ep)
	lay["core.migrate_us"] = ratio(us(t.migrateNs), ep)
	lay["core.migrations_per_epoch"] = ratio(float64(t.migrations), ep)
	lay["core.anneal_iters_per_epoch"] = ratio(float64(t.iters), ep)
	lay["core.anneal_accept_ratio"] = ratio(float64(t.accepted), float64(t.iters))
	lay["core.plans_held_ratio"] = ratio(float64(t.held), ep)
	lay["contention.max_pressure_mean"] = ratio(t.pressure, float64(t.contSamples))
	lay["contention.max_bw_util_mean"] = ratio(t.bwUtil, float64(t.contSamples))

	lay["runtime.gc_cpu_share"] = ratio(t.gcCPU, t.totalCPU)
	lay["runtime.heap_live_mb"] = t.heapLive / (1 << 20)

	bySelf, err := selfSamplesByPackage(t.profile.Bytes())
	if err != nil {
		r.fail("cpu profile: %v", err)
		return
	}
	var total int64
	for _, n := range bySelf {
		total += n
	}
	for pkg, n := range bySelf {
		lay[layerOf(pkg)+".cpu_share"] += ratio(float64(n), float64(total))
	}
}

// layerOf folds a Go package into the benchmark's layer names.
func layerOf(pkg string) string {
	if p, ok := strings.CutPrefix(pkg, "smartbalance/internal/"); ok {
		switch p {
		case "kernel", "hpc", "contention", "pelt", "fixedpt", "core", "fleet", "balancer":
			return p
		case "machine", "perfmodel", "powermodel":
			return "machine"
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}
