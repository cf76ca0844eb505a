package fixedpt

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromFloatRoundTrip(t *testing.T) {
	cases := []float64{0, 1, -1, 0.5, -0.5, 3.14159, -2.71828, 100.25, -100.25}
	for _, f := range cases {
		got := FromFloat(f).Float()
		if math.Abs(got-f) > 1.0/float64(One) {
			t.Errorf("round trip %g -> %g, err %g", f, got, got-f)
		}
	}
}

func TestFromFloatSaturation(t *testing.T) {
	if FromFloat(1e9) != MaxQ {
		t.Error("large positive did not saturate to MaxQ")
	}
	if FromFloat(-1e9) != MinQ {
		t.Error("large negative did not saturate to MinQ")
	}
}

func TestFromIntRoundTrip(t *testing.T) {
	for _, i := range []int{0, 1, -1, 42, -42, 32767, -32768} {
		if got := FromInt(i).Int(); got != i {
			t.Errorf("FromInt(%d).Int() = %d", i, got)
		}
	}
}

func TestFromIntSaturation(t *testing.T) {
	if FromInt(1<<20) != MaxQ {
		t.Error("FromInt overflow did not saturate")
	}
	if FromInt(-(1 << 20)) != MinQ {
		t.Error("FromInt underflow did not saturate")
	}
}

func TestAddSub(t *testing.T) {
	a := FromFloat(1.5)
	b := FromFloat(2.25)
	if got := Add(a, b).Float(); got != 3.75 {
		t.Errorf("1.5+2.25 = %g", got)
	}
	if got := Sub(a, b).Float(); got != -0.75 {
		t.Errorf("1.5-2.25 = %g", got)
	}
}

func TestAddSaturates(t *testing.T) {
	if Add(MaxQ, One) != MaxQ {
		t.Error("Add overflow did not saturate")
	}
	if Sub(MinQ, One) != MinQ {
		t.Error("Sub underflow did not saturate")
	}
}

func TestMul(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{2, 3, 6},
		{-2, 3, -6},
		{0.5, 0.5, 0.25},
		{1.5, -2, -3},
		{0, 123.456, 0},
	}
	for _, c := range cases {
		got := Mul(FromFloat(c.a), FromFloat(c.b)).Float()
		if math.Abs(got-c.want) > 2.0/float64(One) {
			t.Errorf("%g*%g = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestMulSaturates(t *testing.T) {
	big := FromFloat(30000)
	if Mul(big, big) != MaxQ {
		t.Error("Mul overflow did not saturate")
	}
	if Mul(big, FromFloat(-30000)) != MinQ {
		t.Error("Mul negative overflow did not saturate")
	}
}

func TestDiv(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{6, 3, 2},
		{1, 2, 0.5},
		{-6, 3, -2},
		{3, -2, -1.5},
	}
	for _, c := range cases {
		got := Div(FromFloat(c.a), FromFloat(c.b)).Float()
		if math.Abs(got-c.want) > 2.0/float64(One) {
			t.Errorf("%g/%g = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestDivByZero(t *testing.T) {
	if Div(One, 0) != MaxQ {
		t.Error("1/0 should saturate to MaxQ")
	}
	if Div(-One, 0) != MinQ {
		t.Error("-1/0 should saturate to MinQ")
	}
	if Div(0, 0) != MaxQ {
		t.Error("0/0 should saturate to MaxQ")
	}
}

func TestMulDivProperty(t *testing.T) {
	// (a*b)/b ~= a for moderate values.
	// Keep |a*b| well inside the representable range so saturation does
	// not (correctly) break the identity.
	f := func(ai, bi int16) bool {
		a := FromFloat(float64(ai) / 4096) // |a| <= 8
		b := FromFloat(float64(bi)/256 + 130)
		if b.Float() < 1 {
			b = One
		}
		prod := Mul(a, b)
		back := Div(prod, b)
		return math.Abs(back.Float()-a.Float()) < 0.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpNegAccuracy(t *testing.T) {
	// The annealer only needs a few percent of relative accuracy while the
	// acceptance probability is still meaningfully above zero. Below that
	// (want < ~2.5e-3, i.e. x > ~6) the Q16.16 resolution floor dominates
	// and only absolute accuracy matters.
	worstRel, worstAbs := 0.0, 0.0
	for x := 0.0; x <= 12; x += 0.01 {
		got := ExpNegFloat(x)
		want := math.Exp(-x)
		if want >= 2.5e-3 {
			if rel := math.Abs(got-want) / want; rel > worstRel {
				worstRel = rel
			}
		} else if abs := math.Abs(got - want); abs > worstAbs {
			worstAbs = abs
		}
	}
	if worstRel > 0.04 {
		t.Fatalf("ExpNeg worst-case relative error %.4f > 4%%", worstRel)
	}
	if worstAbs > 2e-4 {
		t.Fatalf("ExpNeg worst-case tail absolute error %.6f > 2e-4", worstAbs)
	}
}

func TestExpNegBoundaries(t *testing.T) {
	if ExpNeg(0) != One {
		t.Error("exp(-0) != 1")
	}
	if ExpNeg(-One) != One {
		t.Error("exp of negative arg should clamp to 1")
	}
	if v := ExpNeg(FromFloat(30)); v != 0 {
		t.Errorf("exp(-30) = %g, want underflow to 0", v.Float())
	}
}

func TestExpNegMonotone(t *testing.T) {
	prev := ExpNeg(0)
	for x := Q(1); x < FromInt(15); x += 997 {
		cur := ExpNeg(x)
		if cur > prev {
			t.Fatalf("ExpNeg not monotone at x=%g: %g > %g", x.Float(), cur.Float(), prev.Float())
		}
		prev = cur
	}
}

// expNegLoop is the reference for ExpNeg: the same approximation with
// the range reduction written as a loop of up to 31 ln2 subtractions.
func expNegLoop(x Q) Q {
	if x <= 0 {
		return One
	}
	const ln2 Q = 45426 // round(ln(2) * 65536)
	k := 0
	for x >= ln2 {
		x -= ln2
		k++
		if k >= 31 {
			return 0
		}
	}
	i := int(x >> (Shift - 4))
	if i > 15 {
		i = 15
	}
	r := x - Q(i)<<(Shift-4)
	v := Mul(expFracTable[i], One-r)
	return v >> uint(k)
}

func TestExpNegMatchesLoopReference(t *testing.T) {
	const ln2 Q = 45426
	// Exhaustive over every input the reduction can distinguish, past
	// the 31·ln2 underflow cut-off by one more ln2.
	for x := Q(-1); x <= 32*ln2; x++ {
		if got, want := ExpNeg(x), expNegLoop(x); got != want {
			t.Fatalf("ExpNeg(%d) = %d, loop reference %d", x, got, want)
		}
		if x >= 31*ln2 && ExpNeg(x) != 0 {
			t.Fatalf("ExpNeg(%d) = %d at or above 31·ln2, want 0", x, ExpNeg(x))
		}
	}
	for _, x := range []Q{MinQ, 33 * ln2, FromInt(1000), FromInt(30000), MaxQ - 1, MaxQ} {
		if got, want := ExpNeg(x), expNegLoop(x); got != want {
			t.Fatalf("ExpNeg(%d) = %d, loop reference %d", x, got, want)
		}
	}
}

func TestSqrt(t *testing.T) {
	cases := []float64{0, 1, 2, 4, 9, 0.25, 100, 1024, 30000}
	for _, f := range cases {
		got := Sqrt(FromFloat(f)).Float()
		want := math.Sqrt(f)
		if math.Abs(got-want) > 0.01*(want+1) {
			t.Errorf("sqrt(%g) = %g, want %g", f, got, want)
		}
	}
}

func TestSqrtNegative(t *testing.T) {
	if Sqrt(FromFloat(-4)) != 0 {
		t.Error("sqrt of negative should return 0")
	}
}

func TestSqrtProperty(t *testing.T) {
	f := func(v uint16) bool {
		q := FromFloat(float64(v) / 4)
		s := Sqrt(q)
		back := Mul(s, s)
		return math.Abs(back.Float()-q.Float()) <= 0.05*(q.Float()+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	lo, hi := FromInt(-2), FromInt(5)
	if Clamp(FromInt(7), lo, hi) != hi {
		t.Error("clamp high failed")
	}
	if Clamp(FromInt(-9), lo, hi) != lo {
		t.Error("clamp low failed")
	}
	if v := FromInt(3); Clamp(v, lo, hi) != v {
		t.Error("clamp identity failed")
	}
}

func BenchmarkExpNeg(b *testing.B) {
	x := FromFloat(2.5)
	var sink Q
	for i := 0; i < b.N; i++ {
		sink ^= ExpNeg(x)
	}
	_ = sink
}

func BenchmarkExpNegFloatStdlib(b *testing.B) {
	// Reference: what the paper avoids in kernel space.
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += math.Exp(-2.5)
	}
	_ = sink
}
