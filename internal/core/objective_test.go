package core

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"smartbalance/internal/arch"
	"smartbalance/internal/rng"
)

// toyProblem builds a 4-thread, 3-core problem with hand-set values.
func toyProblem() *Problem {
	return &Problem{
		IPS: [][]float64{
			{4e9, 2e9, 1e9},
			{3e9, 2.5e9, 0.8e9},
			{1e9, 0.9e9, 0.85e9},
			{2e9, 1.5e9, 0.5e9},
		},
		Power: [][]float64{
			{8, 1.4, 0.1},
			{7, 1.2, 0.09},
			{6, 1.0, 0.08},
			{7.5, 1.3, 0.1},
		},
		Util:      []float64{1, 1, 0.5, 0.2},
		IdlePower: []float64{0.2, 0.05, 0.01},
	}
}

func randomProblem(r *rng.Rand, m, n int) *Problem {
	p := &Problem{
		IPS:       make([][]float64, m),
		Power:     make([][]float64, m),
		Util:      make([]float64, m),
		IdlePower: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.IdlePower[j] = 0.01 + r.Float64()*0.2
	}
	for i := 0; i < m; i++ {
		p.IPS[i] = make([]float64, n)
		p.Power[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			p.IPS[i][j] = (0.2 + r.Float64()*4) * 1e9
			p.Power[i][j] = 0.05 + r.Float64()*8
		}
		p.Util[i] = 0.05 + r.Float64()*0.95
	}
	return p
}

func TestProblemValidate(t *testing.T) {
	if err := toyProblem().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Problem){
		func(p *Problem) { p.IPS = nil },
		func(p *Problem) { p.IdlePower = nil },
		func(p *Problem) { p.Util = p.Util[:2] },
		func(p *Problem) { p.IPS[1] = p.IPS[1][:1] },
		func(p *Problem) { p.Util[0] = 1.5 },
		func(p *Problem) { p.Power[2][1] = -1 },
		func(p *Problem) { p.Weights = []float64{1} },
		func(p *Problem) { p.Util[1] = math.NaN() },
		func(p *Problem) { p.IPS[0][2] = math.NaN() },
		func(p *Problem) { p.IPS[3][0] = math.Inf(1) },
		func(p *Problem) { p.Power[1][1] = math.NaN() },
		func(p *Problem) { p.Power[2][0] = math.Inf(1) },
		func(p *Problem) { p.IdlePower[1] = math.NaN() },
		func(p *Problem) { p.IdlePower[0] = math.Inf(1) },
		func(p *Problem) { p.Weights = []float64{1, math.NaN(), 1} },
		func(p *Problem) { p.Weights = []float64{math.Inf(1), 1, 1} },
		func(p *Problem) { p.Weights = []float64{1, 1, math.Inf(-1)} },
	}
	for i, mod := range bad {
		p := toyProblem()
		mod(p)
		if err := p.Validate(); err == nil {
			t.Errorf("bad problem %d accepted", i)
		}
	}
}

// coreShare is the reference water-filling the evaluator is checked
// against: it computes, for the threads mapped to one core, each
// thread's share of core time under CFS time-sharing — fair water-
// filling of one core-second per second among threads capped by their
// utilisation demand. The return value is aligned with utils. It
// sorts an index over the demands (a stable insertion sort) on every
// call, which the evaluator avoids by keeping each core's order.
func coreShare(utils []float64) []float64 {
	n := len(utils)
	shares := make([]float64, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		k := idx[i]
		j := i - 1
		for j >= 0 && utils[idx[j]] > utils[k] {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = k
	}
	capacity := 1.0
	remaining := n
	for _, i := range idx {
		fair := capacity / float64(remaining)
		s := utils[i]
		if s > fair {
			s = fair
		}
		shares[i] = s
		capacity -= s
		remaining--
	}
	return shares
}

// refCoreEval is the reference for Evaluator.coreEval: core j's
// weighted GIPS and power for the explicit member list threads, by
// coreShare over the members' demands and sums in list order.
func refCoreEval(p *Problem, j int, threads []int) (gips, power float64) {
	if len(threads) == 0 {
		return 0, p.IdlePower[j]
	}
	utils := make([]float64, len(threads))
	for k, i := range threads {
		utils[k] = p.Util[i]
	}
	shares := coreShare(utils)
	var ips, busy float64
	for k, i := range threads {
		s := shares[k]
		ips += s * p.IPS[i][j]
		power += s * p.Power[i][j]
		busy += s
	}
	power += (1 - busy) * p.IdlePower[j]
	return p.weight(j) * ips / 1e9, power
}

// evalShares runs the production water-filling over threads with the
// given demands, all on core 0 of a one-core problem, and returns the
// shares aligned with utils.
func evalShares(t *testing.T, utils []float64) []float64 {
	t.Helper()
	m := len(utils)
	p := &Problem{IPS: make([][]float64, m), Power: make([][]float64, m), Util: utils, IdlePower: []float64{0.1}}
	for i := range p.IPS {
		p.IPS[i] = []float64{1e9}
		p.Power[i] = []float64{1}
	}
	e, err := NewEvaluator(p, make(Allocation, m))
	if err != nil {
		t.Fatal(err)
	}
	e.coreEval(0, -1, -1)
	return append([]float64(nil), e.share...)
}

// shareImpl is one water-filling implementation under test.
type shareImpl struct {
	name  string
	share func([]float64) []float64
}

// shareImpls are the water-filling implementations the TestCoreShare*
// properties hold for: the reference and the evaluator's.
func shareImpls(t *testing.T) []shareImpl {
	return []shareImpl{
		{"reference", coreShare},
		{"evaluator", func(u []float64) []float64 { return evalShares(t, u) }},
	}
}

func TestCoreShareWaterFilling(t *testing.T) {
	for _, impl := range shareImpls(t) {
		name, share := impl.name, impl.share
		// Demands below the fair share are met exactly; the rest split
		// the remainder.
		shares := share([]float64{0.1, 1, 1})
		if math.Abs(shares[0]-0.1) > 1e-12 {
			t.Fatalf("%s: light thread share %g", name, shares[0])
		}
		if math.Abs(shares[1]-0.45) > 1e-12 || math.Abs(shares[2]-0.45) > 1e-12 {
			t.Fatalf("%s: heavy shares %v", name, shares)
		}
		// Total never exceeds capacity.
		total := shares[0] + shares[1] + shares[2]
		if total > 1+1e-12 {
			t.Fatalf("%s: shares exceed capacity: %g", name, total)
		}
	}
}

func TestCoreShareAllLight(t *testing.T) {
	for _, impl := range shareImpls(t) {
		name, share := impl.name, impl.share
		shares := share([]float64{0.2, 0.3})
		if shares[0] != 0.2 || shares[1] != 0.3 {
			t.Fatalf("%s: light demands should be met: %v", name, shares)
		}
	}
}

func TestCoreShareSaturated(t *testing.T) {
	for _, impl := range shareImpls(t) {
		name, share := impl.name, impl.share
		shares := share([]float64{1, 1, 1, 1})
		for _, s := range shares {
			if math.Abs(s-0.25) > 1e-12 {
				t.Fatalf("%s: saturated shares %v", name, shares)
			}
		}
	}
}

func TestCoreShareEmpty(t *testing.T) {
	if len(coreShare(nil)) != 0 {
		t.Fatal("empty core should have no shares")
	}
	// An empty core of the evaluator produces nothing and draws its
	// idle power.
	p := toyProblem()
	e, err := NewEvaluator(p, Allocation{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := e.coreEval(2, -1, -1); g != 0 || w != p.IdlePower[2] {
		t.Fatalf("empty core evaluated to (%g, %g)", g, w)
	}
	if g, w := e.coreEval(1, -1, -1); g != 0 || w != p.IdlePower[1] {
		t.Fatalf("empty core evaluated to (%g, %g)", g, w)
	}
}

func TestCoreShareProperty(t *testing.T) {
	for _, impl := range shareImpls(t) {
		name, share := impl.name, impl.share
		// For any demands, shares are within [0, demand] and sum <= 1.
		f := func(raw []uint8) bool {
			if len(raw) == 0 || len(raw) > 12 {
				return true
			}
			utils := make([]float64, len(raw))
			for i, v := range raw {
				utils[i] = float64(v) / 255
			}
			shares := share(utils)
			sum := 0.0
			for i, s := range shares {
				if s < -1e-12 || s > utils[i]+1e-12 {
					return false
				}
				sum += s
			}
			return sum <= 1+1e-9
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// tieUtils redraws p's utilisations from a small palette of saturated
// and repeated fractional demands, so most threads tie with another.
func tieUtils(r *rng.Rand, p *Problem) {
	palette := []float64{1, 1, 1, 0.5, 0.5, 0.25, 0.75, 0.125, 0}
	for i := range p.Util {
		p.Util[i] = palette[r.Intn(len(palette))]
	}
}

// TestCoreEvalMatchesReference checks the evaluator's list-free
// previews against the reference: for random (core, drop, add) edits
// of random allocations with tied and saturated demands, coreEval must
// equal refCoreEval over the explicitly edited member list (drop
// removed, add appended), bit for bit.
func TestCoreEvalMatchesReference(t *testing.T) {
	r := rng.New(91)
	for trial := 0; trial < 200; trial++ {
		m := 1 + r.Intn(24)
		n := 1 + r.Intn(5)
		p := randomProblem(r, m, n)
		if trial%2 == 0 {
			tieUtils(r, p)
		}
		alloc := make(Allocation, m)
		for i := range alloc {
			alloc[i] = arch.CoreID(r.Intn(n))
		}
		e, err := NewEvaluator(p, alloc)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 20; step++ {
			j := r.Intn(n)
			drop, add := -1, -1
			if i := r.Intn(m); r.Float64() < 0.7 && int(e.alloc[i]) == j {
				drop = i
			}
			if i := r.Intn(m); r.Float64() < 0.7 && int(e.alloc[i]) != j {
				add = i
			}
			var list []int
			for _, i := range e.byCore[j] {
				if i != drop {
					list = append(list, i)
				}
			}
			if add >= 0 {
				list = append(list, add)
			}
			g, w := e.coreEval(j, drop, add)
			rg, rw := refCoreEval(p, j, list)
			if math.Float64bits(g) != math.Float64bits(rg) || math.Float64bits(w) != math.Float64bits(rw) {
				t.Fatalf("trial %d core %d drop %d add %d: coreEval (%v, %v) != reference (%v, %v) over %v",
					trial, j, drop, add, g, w, rg, rw, list)
			}
			if r.Float64() < 0.5 {
				e.Move(r.Intn(m), arch.CoreID(r.Intn(n)))
			} else if m >= 2 {
				e.Swap(r.Intn(m), r.Intn(m))
			}
			checkCachesFresh(t, e)
		}
	}
}

func TestEmptyCoreSemanticsPerMode(t *testing.T) {
	// PerCoreRatioSum: an empty core contributes exactly 0 (Eq. 11 with
	// IPS_j = 0), so packing everything onto core 0 scores the same as
	// core 0's own ratio.
	p := toyProblem()
	p.Mode = PerCoreRatioSum
	packed, err := EvaluateAllocation(p, Allocation{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if packed <= 0 {
		t.Fatal("non-empty allocation scored zero")
	}
	// GlobalRatio: empty cores still burn their quiescent power in the
	// denominator, so raising an idle core's IdlePower must lower J.
	p2 := toyProblem() // GlobalRatio by default
	base, _ := EvaluateAllocation(p2, Allocation{0, 0, 0, 0})
	p3 := toyProblem()
	p3.IdlePower[2] *= 100
	loaded, _ := EvaluateAllocation(p3, Allocation{0, 0, 0, 0})
	if loaded >= base {
		t.Fatalf("idle power ignored in global mode: %g >= %g", loaded, base)
	}
}

func TestGlobalModeRewardsGatingHungryCores(t *testing.T) {
	// The decisive difference between the modes: with a power-hungry
	// core 0, moving its thread to the efficient core 2 must raise the
	// global objective even though it empties core 0.
	p := toyProblem()
	spread, _ := EvaluateAllocation(p, Allocation{0, 1, 2, 2})
	gated, _ := EvaluateAllocation(p, Allocation{2, 1, 2, 2})
	if gated <= spread {
		t.Fatalf("global mode should reward sleeping the 8W core: gated %g <= spread %g", gated, spread)
	}
	// And the relative gain must be substantial here (the 8W core was
	// producing 4 GIPS out of ~5 GIPS total but eating ~85% of the power).
	if gated < 1.5*spread {
		t.Fatalf("gating gain implausibly small: %g vs %g", gated, spread)
	}
}

func TestOptimalBeatsCapabilityBlindSpread(t *testing.T) {
	// The vanilla balancer's even spread (one thread per core by count,
	// ignoring types) must be beatable by the J_E optimum — this gap is
	// the paper's entire opportunity.
	p := toyProblem()
	even, err := EvaluateAllocation(p, Allocation{0, 1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	_, best, err := BruteForceOptimal(p)
	if err != nil {
		t.Fatal(err)
	}
	if best <= even*1.05 {
		t.Fatalf("optimum %.4f barely beats blind spread %.4f; no heterogeneity signal", best, even)
	}
}

func TestWeightsScaleContribution(t *testing.T) {
	p := toyProblem()
	base, _ := EvaluateAllocation(p, Allocation{0, 1, 2, 2})
	p.Weights = []float64{2, 1, 1}
	weighted, _ := EvaluateAllocation(p, Allocation{0, 1, 2, 2})
	if weighted <= base {
		t.Fatal("doubling a used core's weight must raise the objective")
	}
}

func TestEvaluatorIncrementalMatchesScratch(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 20; trial++ {
		m := 2 + r.Intn(10)
		n := 2 + r.Intn(5)
		p := randomProblem(r, m, n)
		if trial%2 == 1 {
			tieUtils(r, p)
		}
		alloc := make(Allocation, m)
		for i := range alloc {
			alloc[i] = arch.CoreID(r.Intn(n))
		}
		e, err := NewEvaluator(p, alloc)
		if err != nil {
			t.Fatal(err)
		}
		checkCachesFresh(t, e)
		// A sequence of random moves and swaps, previewed or not; after
		// each, the incremental objective must equal a scratch
		// evaluation.
		for step := 0; step < 30; step++ {
			mutateAndCheck(t, r, e)
			scratch, err := EvaluateAllocation(p, e.Allocation())
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(scratch-e.Objective()) > 1e-6*(1+math.Abs(scratch)) {
				t.Fatalf("incremental %.9f != scratch %.9f at step %d", e.Objective(), scratch, step)
			}
		}
	}
}

// mutateAndCheck applies one random evaluator mutation, chosen to
// exercise every preview path: a preview committed by the matching
// call, a mutation with no preview, a preview followed by a different
// Move or Swap, a SwapDelta followed by a Move, and a preview made
// stale by an intervening mutation before the matching call. A
// committed preview must agree with the applied delta, and after every
// mutation the evaluator's caches must equal a fresh computation.
func mutateAndCheck(t *testing.T, r *rng.Rand, e *Evaluator) {
	t.Helper()
	m, n := len(e.alloc), len(e.byCore)
	pickMove := func() (int, arch.CoreID) { return r.Intn(m), arch.CoreID(r.Intn(n)) }
	pickSwap := func() (int, int) { return r.Intn(m), r.Intn(m) }
	move := func(i int, dst arch.CoreID) float64 {
		d := e.Move(i, dst)
		checkCachesFresh(t, e)
		return d
	}
	swap := func(i, k int) float64 {
		d := e.Swap(i, k)
		checkCachesFresh(t, e)
		return d
	}
	otherMove := func(i int, dst arch.CoreID) (int, arch.CoreID) {
		i2, dst2 := pickMove()
		if i2 == i && dst2 == dst {
			dst2 = (dst2 + 1) % arch.CoreID(n)
		}
		return i2, dst2
	}
	switch r.Intn(6) {
	case 0: // preview committed by the matching Move
		i, dst := pickMove()
		pre := e.MoveDelta(i, dst)
		if got := move(i, dst); math.Abs(pre-got) > 1e-9 {
			t.Fatalf("MoveDelta %g != Move %g", pre, got)
		}
	case 1: // preview committed by the matching Swap
		i, k := pickSwap()
		pre := e.SwapDelta(i, k)
		if got := swap(i, k); math.Abs(pre-got) > 1e-9 {
			t.Fatalf("SwapDelta %g != Swap %g", pre, got)
		}
	case 2: // no preview
		if r.Float64() < 0.5 {
			move(pickMove())
		} else {
			swap(pickSwap())
		}
	case 3: // MoveDelta followed by a different Move or by a Swap
		i, dst := pickMove()
		e.MoveDelta(i, dst)
		if r.Float64() < 0.5 {
			move(otherMove(i, dst))
		} else {
			swap(pickSwap())
		}
	case 4: // SwapDelta followed by a Move or by a different Swap
		i, k := pickSwap()
		e.SwapDelta(i, k)
		if r.Float64() < 0.5 {
			move(pickMove())
		} else {
			swap(k, (i+1)%m)
		}
	case 5: // a preview, an intervening mutation, then the previewed call
		if r.Float64() < 0.5 {
			i, dst := pickMove()
			e.MoveDelta(i, dst)
			swap(pickSwap())
			move(i, dst)
		} else {
			i, k := pickSwap()
			e.SwapDelta(i, k)
			move(pickMove())
			swap(i, k)
		}
	}
}

// checkCachesFresh asserts, bit for bit, that every evaluator cache
// equals a fresh computation from the current allocation: each core's
// members are exactly the threads allocated to it, its order row a
// stable sort of them by utilisation, its (gips, power) the reference
// refCoreEval over a copy of its member list, each contention penalty
// a fresh penalty of the current aggregates, and the cached objective
// a fresh fold.
func checkCachesFresh(t *testing.T, e *Evaluator) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	counts := make([]int, len(e.byCore))
	for _, c := range e.alloc {
		counts[c]++
	}
	for j := range e.byCore {
		members := append([]int(nil), e.byCore[j]...)
		if len(members) != counts[j] {
			t.Fatalf("core %d lists %d members, allocation has %d", j, len(members), counts[j])
		}
		for _, i := range members {
			if int(e.alloc[i]) != j {
				t.Fatalf("core %d lists thread %d, allocated to core %d", j, i, e.alloc[i])
			}
		}
		sorted := append([]int(nil), members...)
		sort.SliceStable(sorted, func(a, b int) bool { return e.prob.Util[sorted[a]] < e.prob.Util[sorted[b]] })
		if !slices.Equal(sorted, e.order[j]) {
			t.Fatalf("core %d order %v, want stable sort %v of members %v", j, e.order[j], sorted, members)
		}
		g, w := refCoreEval(e.prob, j, members)
		if !same(g, e.coreGIPS[j]) || !same(w, e.corePow[j]) {
			t.Fatalf("core %d cached (%v, %v) != reference (%v, %v)", j, e.coreGIPS[j], e.corePow[j], g, w)
		}
	}
	if e.prob.Contention != nil {
		if len(e.pen) != len(e.byCore) {
			t.Fatalf("%d cached penalties for %d cores", len(e.pen), len(e.byCore))
		}
		for j := range e.pen {
			if fresh := e.corePenalty(j); !same(fresh, e.pen[j]) {
				t.Fatalf("core %d cached penalty %v != fresh %v", j, e.pen[j], fresh)
			}
		}
	}
	if fresh := e.fold(); !same(fresh, e.Objective()) {
		t.Fatalf("cached objective %v != fresh fold %v", e.Objective(), fresh)
	}
}

func TestEvaluatorRejectsBadInput(t *testing.T) {
	p := toyProblem()
	if _, err := NewEvaluator(p, Allocation{0}); err == nil {
		t.Fatal("short allocation accepted")
	}
	if _, err := NewEvaluator(p, Allocation{0, 0, 0, 9}); err == nil {
		t.Fatal("out-of-range core accepted")
	}
	bad := toyProblem()
	bad.Util[0] = -1
	if _, err := NewEvaluator(bad, Allocation{0, 0, 0, 0}); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

func TestBruteForceOptimal(t *testing.T) {
	p := toyProblem()
	best, score, err := BruteForceOptimal(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(best) != 4 {
		t.Fatalf("allocation length %d", len(best))
	}
	// No allocation may beat it (exhaustive cross-check on a subsample).
	r := rng.New(5)
	for trial := 0; trial < 200; trial++ {
		alloc := make(Allocation, 4)
		for i := range alloc {
			alloc[i] = arch.CoreID(r.Intn(3))
		}
		s, _ := EvaluateAllocation(p, alloc)
		if s > score+1e-12 {
			t.Fatalf("brute force missed a better allocation: %v scores %g > %g", alloc, s, score)
		}
	}
}

func TestBruteForceInfeasibleRejected(t *testing.T) {
	r := rng.New(9)
	p := randomProblem(r, 30, 8) // 8^30 states
	if _, _, err := BruteForceOptimal(p); err == nil {
		t.Fatal("infeasible brute force accepted")
	}
}

// Benchmarks for the incremental-vs-scratch objective evaluation — the
// paper's "obtaining a new evaluation only by performing computations
// induced by the latest swap on Ψ" optimisation, quantified.

func BenchmarkMoveDeltaIncremental(b *testing.B) {
	r := rng.New(201)
	p := randomProblem(r, 32, 8)
	alloc := make(Allocation, 32)
	for i := range alloc {
		alloc[i] = arch.CoreID(r.Intn(8))
	}
	e, err := NewEvaluator(p, alloc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Move(i%32, arch.CoreID(i%8))
	}
}

func BenchmarkMoveScratchReevaluation(b *testing.B) {
	r := rng.New(202)
	p := randomProblem(r, 32, 8)
	alloc := make(Allocation, 32)
	for i := range alloc {
		alloc[i] = arch.CoreID(r.Intn(8))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc[i%32] = arch.CoreID(i % 8)
		if _, err := EvaluateAllocation(p, alloc); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMaxThroughputModePrefersFastCores(t *testing.T) {
	// Under the throughput goal the optimum loads the fastest cores
	// regardless of power; for the toy problem, thread 0 (4 GIPS on
	// core 0) must land on core 0 in the brute-force optimum.
	p := toyProblem()
	p.Mode = MaxThroughput
	best, score, err := BruteForceOptimal(p)
	if err != nil {
		t.Fatal(err)
	}
	if best[0] != 0 {
		t.Fatalf("throughput optimum put thread 0 on core %d", best[0])
	}
	if score <= 0 {
		t.Fatal("no throughput scored")
	}
	// The mode string is distinct.
	if MaxThroughput.String() != "max-throughput" {
		t.Fatal("mode string wrong")
	}
	// Incremental evaluation must match scratch in this mode too.
	e, err := NewEvaluator(p, Allocation{0, 0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	e.Move(1, 2)
	scratch, _ := EvaluateAllocation(p, e.Allocation())
	if math.Abs(scratch-e.Objective()) > 1e-9 {
		t.Fatalf("throughput mode incremental %.9f != scratch %.9f", e.Objective(), scratch)
	}
}
