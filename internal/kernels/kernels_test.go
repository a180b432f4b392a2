package kernels

import (
	"math"
	"testing"

	"positres/internal/numfmt"
)

func codec(t *testing.T, name string) numfmt.Codec {
	t.Helper()
	c, err := numfmt.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestArrayBasics(t *testing.T) {
	c := codec(t, "posit32")
	a := NewArray(c, []float64{1, 2.5, -3})
	if a.Len() != 3 || a.Codec().Name() != "posit32" {
		t.Fatal("shape")
	}
	if a.Load(1) != 2.5 {
		t.Fatal("load")
	}
	a.Store(0, 7)
	if a.Load(0) != 7 {
		t.Fatal("store")
	}
	if a.Load(2) != -3 {
		t.Fatal("load negative")
	}
	before := a.Bits(2)
	a.InjectBitFlip(2, 5)
	if a.Bits(2) != before^(1<<5) {
		t.Fatal("flip")
	}
	// Stores round into the format: posit8 cannot hold 186.25.
	a8 := NewArray(codec(t, "posit8"), []float64{186.25})
	if a8.Load(0) != 192 {
		t.Fatalf("posit8 rounding: %v", a8.Load(0))
	}
}

func TestProtectedArray(t *testing.T) {
	c := codec(t, "posit32")
	a, err := NewProtectedArray(c, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Load(1) != 2 {
		t.Fatal("protected load")
	}
	// Any single flipped codeword bit is repaired on load.
	for pos := 0; pos < 39; pos++ {
		a.InjectBitFlip(1, pos)
		if got := a.Load(1); got != 2 {
			t.Fatalf("bit %d: load %v after fault", pos, got)
		}
	}
	if a.Corrected != 39 {
		t.Fatalf("corrected %d, want 39", a.Corrected)
	}
	a.Store(2, 9)
	if a.Load(2) != 9 {
		t.Fatal("protected store")
	}
	if a.Bits(0) != c.Encode(1) {
		t.Fatal("protected bits")
	}
	// Non-32-bit formats refuse protection.
	if _, err := NewProtectedArray(codec(t, "posit16"), []float64{1}); err == nil {
		t.Fatal("posit16 protection should fail")
	}
}

func TestBLASKernels(t *testing.T) {
	c := codec(t, "ieee32")
	x := NewArray(c, []float64{1, 2, 3})
	y := NewArray(c, []float64{4, 5, 6})
	if Dot(x, y) != 32 {
		t.Fatal("dot")
	}
	AXPY(2, x, y) // y = 2x + y = {6, 9, 12}
	if y.Load(0) != 6 || y.Load(2) != 12 {
		t.Fatal("axpy")
	}
	// Shape panics.
	for _, f := range []func(){
		func() { Dot(x, NewArray(c, []float64{1})) },
		func() { AXPY(1, x, NewArray(c, []float64{1})) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected shape panic")
				}
			}()
			f()
		}()
	}
}

func TestPoissonOperator(t *testing.T) {
	c := codec(t, "ieee64")
	op := Poisson1D{N: 4}
	x := NewArray(c, []float64{1, 2, 3, 4})
	y := NewArray(c, make([]float64, 4))
	op.Apply(x, y)
	want := []float64{0, 0, 0, 5} // 2·1−2, 2·2−1−3, 2·3−2−4, 2·4−3
	for i, w := range want {
		if y.Load(i) != w {
			t.Fatalf("apply[%d] = %v, want %v", i, y.Load(i), w)
		}
	}
	b := NewArray(c, []float64{0, 0, 0, 5})
	r := NewArray(c, make([]float64, 4))
	if rn := op.Residual(b, x, r); rn != 0 {
		t.Fatalf("residual of exact solution = %v", rn)
	}
}

// TestSolversConvergeClean: both solvers reach the manufactured
// solution without faults, in every 32-bit format.
func TestSolversConvergeClean(t *testing.T) {
	p := NewProblem(64)
	for _, name := range []string{"posit32", "ieee32", "ieee64", "posit64"} {
		c := codec(t, name)
		jr, err := p.Jacobi(c, 20000, 1e-6, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if jr.Diverged || jr.SolutionErr > 1e-3 {
			t.Errorf("%s jacobi: %+v", name, jr)
		}
		cr, err := p.CG(c, 500, 1e-7, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if cr.Diverged || cr.SolutionErr > 1e-3 {
			t.Errorf("%s cg: %+v", name, cr)
		}
		// In float64 storage, CG on an n-point SPD system converges in
		// ≤ n iterations; 32-bit storage quantization may keep the
		// recurrences hunting at the rounding floor, so only the
		// 64-bit formats get the strict bound.
		if name == "ieee64" && cr.Iters > 100 {
			t.Errorf("%s cg took %d iterations", name, cr.Iters)
		}
	}
}

// TestJacobiSelfCorrects: a mid-solve flip in a *low* bit decays away
// (stationary methods are self-correcting), so the final error matches
// the clean run.
func TestJacobiSelfCorrects(t *testing.T) {
	p := NewProblem(64)
	c := codec(t, "posit32")
	inj := Injection{Iter: 100, Index: 20, Bit: 3}
	row, err := SolverImpact(p, c, "jacobi", 20000, 1e-6, inj, false)
	if err != nil {
		t.Fatal(err)
	}
	if row.Faulty.Diverged {
		t.Fatal("low-bit flip should not diverge Jacobi")
	}
	if row.ErrInflation > 1.5 {
		t.Errorf("Jacobi did not self-correct: inflation %v", row.ErrInflation)
	}
}

// TestCGPersistsFault: the same flip in CG's solution vector persists
// (the method never rereads b to correct x), inflating the final error.
func TestCGPersistsFault(t *testing.T) {
	p := NewProblem(64)
	c := codec(t, "posit32")
	// Flip an upper bit of x mid-solve: the corruption stays in x.
	inj := Injection{Iter: 10, Index: 20, Bit: 28}
	row, err := SolverImpact(p, c, "cg", 500, 1e-10, inj, false)
	if err != nil {
		t.Fatal(err)
	}
	if !(row.Faulty.SolutionErr > 10*row.Clean.SolutionErr) {
		t.Errorf("CG fault unexpectedly healed: clean %g faulty %g",
			row.Clean.SolutionErr, row.Faulty.SolutionErr)
	}
}

// TestProtectionAbsorbsFault: the same injections under SEC-DED
// protection are corrected on the next load — the faulty run matches
// the clean run exactly.
func TestProtectionAbsorbsFault(t *testing.T) {
	p := NewProblem(64)
	for _, name := range []string{"posit32", "ieee32"} {
		c := codec(t, name)
		for _, solver := range []string{"jacobi", "cg"} {
			inj := Injection{Iter: 10, Index: 20, Bit: 30}
			row, err := SolverImpact(p, c, solver, 20000, 1e-6, inj, true)
			if err != nil {
				t.Fatal(err)
			}
			if row.Faulty.SolutionErr != row.Clean.SolutionErr {
				t.Errorf("%s/%s: protected run differed: %g vs %g",
					name, solver, row.Faulty.SolutionErr, row.Clean.SolutionErr)
			}
			if row.Faulty.Corrected == 0 {
				t.Errorf("%s/%s: no correction recorded", name, solver)
			}
		}
	}
}

// TestUpperBitImpactPositVsIEEE: an upper-bit flip mid-Jacobi hurts
// the IEEE run far more than the posit run (the paper's headline,
// end-to-end).
func TestUpperBitImpactPositVsIEEE(t *testing.T) {
	p := NewProblem(64)
	// Bit 30 is the IEEE top exponent bit: for |x| < 2 it is clear, so
	// the flip multiplies by 2^128. The same position in a posit is
	// R_0, whose inversion is bounded by the following bits.
	inj := Injection{Iter: 100, Index: 31, Bit: 30}
	// Jacobi with limited iterations: the IEEE flip (×2^128 scale
	// jump) needs far longer to decay than the posit flip.
	maxIters := 600
	pr, err := SolverImpact(p, codec(t, "posit32"), "jacobi", maxIters, 0, inj, false)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := SolverImpact(p, codec(t, "ieee32"), "jacobi", maxIters, 0, inj, false)
	if err != nil {
		t.Fatal(err)
	}
	if !(ir.Faulty.SolutionErr > 1e3*pr.Faulty.SolutionErr) {
		t.Errorf("expected IEEE upper-bit fault ≫ posit: posit %g ieee %g",
			pr.Faulty.SolutionErr, ir.Faulty.SolutionErr)
	}
}

func TestRandomInjection(t *testing.T) {
	a := RandomInjection(1, 100, 300, 7)
	b := RandomInjection(1, 100, 300, 7)
	if a != b {
		t.Fatal("not deterministic")
	}
	if a.Iter != 100 || a.Index < 0 || a.Index >= 100 || a.Bit != 7 {
		t.Fatalf("injection: %+v", a)
	}
	if c := RandomInjection(2, 100, 300, 7); c.Index == a.Index {
		// Different seeds usually pick different indices; a collision
		// is possible but with n=100 it's a 1% event — tolerate by
		// checking a second seed too.
		if d := RandomInjection(3, 100, 300, 7); d.Index == a.Index {
			t.Error("injections look seed-independent")
		}
	}
}

func TestSolverImpactMath(t *testing.T) {
	p := NewProblem(32)
	c := codec(t, "ieee64")
	inj := Injection{Iter: 5, Index: 10, Bit: 2}
	row, err := SolverImpact(p, c, "jacobi", 5000, 1e-9, inj, false)
	if err != nil {
		t.Fatal(err)
	}
	if row.Solver != "jacobi" || row.Codec != "ieee64" || row.Bit != 2 {
		t.Fatal("row metadata")
	}
	if row.Clean.SolutionErr <= 0 || math.IsNaN(row.ErrInflation) {
		t.Fatalf("row math: %+v", row)
	}
}

func TestSnapshotRestore(t *testing.T) {
	c := codec(t, "posit32")
	a := NewArray(c, []float64{1, 2, 3})
	snap := a.Snapshot()
	a.Store(1, 42)
	if err := a.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if a.Load(1) != 2 {
		t.Fatal("restore")
	}
	if err := a.RestoreSnapshot(snap[:1]); err == nil {
		t.Fatal("length mismatch should error")
	}
	// Protected arrays snapshot their repaired data words.
	p, err := NewProtectedArray(c, []float64{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	p.InjectBitFlip(0, 10)
	snap = p.Snapshot() // repairs on read
	p.Store(0, 9)
	if err := p.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if p.Load(0) != 5 {
		t.Fatalf("protected restore: %v", p.Load(0))
	}
}
