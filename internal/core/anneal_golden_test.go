package core

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/anneal_golden.txt from current output")

// goldenProblem is one fixed-seed optimiser input of the cross-commit
// anneal golden.
type goldenProblem struct {
	name    string
	m, n    int
	domains []int32 // LLC domain of each core; nil means contention-blind
	pinned  bool    // restrict every other thread to a random core subset
	// utils, when non-nil, replaces every thread's utilisation with a
	// draw from this palette, so many threads tie on the same demand.
	utils []float64
	// pile, when positive, draws the initial allocation from the first
	// pile cores only, crowding every thread onto them.
	pile int
	seed uint64
}

// goldenProblems covers the shapes the controller hands the annealer:
// the A14 contended platform (4 threads on 6 cores in three 2-core LLC
// domains), a QuadHMP-sized 8x4 grid, a wider random one, an
// affinity-restricted problem, and Mix6-like crowds: 24 threads on 4
// cores with tied, mostly saturated utilisations, started piled onto
// one or two cores.
var goldenProblems = []goldenProblem{
	{name: "a14-blind", m: 4, n: 6, seed: 11},
	{name: "a14-cont", m: 4, n: 6, domains: []int32{0, 0, 1, 1, 2, 2}, seed: 11},
	{name: "quad-blind", m: 8, n: 4, seed: 12},
	{name: "quad-cont", m: 8, n: 4, domains: []int32{0, 0, 1, 1}, seed: 12},
	{name: "wide-cont", m: 12, n: 8, domains: []int32{0, 0, 0, 1, 1, 2, 2, 2}, seed: 13},
	{name: "pinned-cont", m: 6, n: 6, domains: []int32{0, 0, 1, 1, 2, 2}, pinned: true, seed: 14},
	{name: "crowd-blind", m: 24, n: 4, utils: crowdUtils, pile: 2, seed: 15},
	{name: "crowd-cont", m: 24, n: 4, domains: []int32{0, 0, 1, 1}, utils: crowdUtils, pile: 1, seed: 16},
	{name: "crowd2-cont", m: 24, n: 4, domains: []int32{0, 0, 1, 1}, utils: crowdUtils, pile: 2, seed: 17},
}

// crowdUtils is the crowded problems' utilisation palette: mostly
// saturated threads plus a few repeated fractional demands.
var crowdUtils = []float64{1, 1, 1, 1, 0.5, 0.5, 0.25, 0.75, 0.125}

// build assembles the problem for one objective mode. The rng stream
// depends only on the problem's seed, so every mode sees the same
// matrices.
func (g goldenProblem) build(mode ObjectiveMode) (*Problem, Allocation) {
	r := rng.New(g.seed)
	p := randomProblem(r, g.m, g.n)
	p.Mode = mode
	if g.utils != nil {
		for i := range p.Util {
			p.Util[i] = g.utils[r.Intn(len(g.utils))]
		}
	}
	if g.domains != nil {
		nd := 0
		for _, d := range g.domains {
			if int(d)+1 > nd {
				nd = int(d) + 1
			}
		}
		t := &ContentionTerm{
			DomainOf:    g.domains,
			DomLLCKB:    make([]float64, nd),
			DomBWGBps:   make([]float64, nd),
			WsKB:        make([]float64, g.m),
			BwGBps:      make([]float64, g.m),
			MissSlope:   0.2 + r.Float64()*2,
			PressureCap: 1 + r.Float64()*3,
			MaxBWUtil:   0.5 + r.Float64()*0.4,
		}
		for d := 0; d < nd; d++ {
			t.DomLLCKB[d] = 256 + r.Float64()*4096
			t.DomBWGBps[d] = 1 + r.Float64()*15
		}
		for i := 0; i < g.m; i++ {
			t.WsKB[i] = r.Float64() * 8192
			t.BwGBps[i] = r.Float64() * 4
		}
		p.Contention = t
	}
	initial := make(Allocation, g.m)
	if g.pinned {
		p.Allowed = make([][]bool, g.m)
	}
	span := g.n
	if g.pile > 0 {
		span = g.pile
	}
	for i := range initial {
		initial[i] = arch.CoreID(r.Intn(span))
		if g.pinned && i%2 == 0 {
			row := make([]bool, g.n)
			row[initial[i]] = true
			for j := range row {
				if r.Float64() < 0.4 {
					row[j] = true
				}
			}
			p.Allowed[i] = row
		}
	}
	return p, initial
}

// goldenOutput renders every golden case: per problem and mode, the
// GreedyInitial allocation, then the annealed outcome for two seeds
// from the fixed initial allocation and one from the greedy start.
func goldenOutput(t *testing.T) []byte {
	var buf bytes.Buffer
	modes := []ObjectiveMode{GlobalRatio, PerCoreRatioSum, MaxThroughput}
	for _, g := range goldenProblems {
		for _, mode := range modes {
			p, initial := g.build(mode)
			key := g.name + " " + mode.String()
			greedy, err := GreedyInitial(p)
			if err != nil {
				t.Fatalf("%s: GreedyInitial: %v", key, err)
			}
			fmt.Fprintf(&buf, "%s greedy=%v\n", key, greedy)
			runs := []struct {
				label string
				start Allocation
				seed  uint64
			}{
				{"fixed", initial, 1},
				{"fixed", initial, 2},
				{"greedy", greedy, 3},
			}
			for _, run := range runs {
				cfg := DefaultAnnealConfig()
				cfg.Seed = run.seed
				res, err := Anneal(p, run.start, cfg)
				if err != nil {
					t.Fatalf("%s: Anneal: %v", key, err)
				}
				fmt.Fprintf(&buf, "%s start=%s seed=%d alloc=%v initial=%016x objective=%016x iters=%d accepted=%d\n",
					key, run.label, run.seed, res.Allocation,
					math.Float64bits(res.Initial), math.Float64bits(res.Objective),
					res.Iterations, res.Accepted)
			}
		}
	}
	return buf.Bytes()
}

// TestAnnealGolden pins the optimiser's fixed-seed output bit for bit
// across commits: a change to the evaluator or the annealer that shifts
// any allocation, objective bit, iteration or acceptance count fails
// here. Regenerate with -update only for an intended behaviour change.
func TestAnnealGolden(t *testing.T) {
	got := goldenOutput(t)
	path := filepath.Join("testdata", "anneal_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("anneal output drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
