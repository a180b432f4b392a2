package checkpoint

import (
	"errors"
	"testing"

	"positres/internal/kernels"
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

func TestTakeVerifyRestore(t *testing.T) {
	c := codec(t, "posit32")
	a := kernels.NewArray(c, []float64{1, 2, 3, 4})
	ck := Take(a)
	if !ck.Verify() {
		t.Fatal("fresh checkpoint should verify")
	}
	a.Store(2, 99)
	a.InjectBitFlip(0, 30)
	if err := ck.Restore(a); err != nil {
		t.Fatal(err)
	}
	if a.Load(2) != 3 || a.Load(0) != 1 {
		t.Fatalf("restore failed: a[0]=%v a[2]=%v", a.Load(0), a.Load(2))
	}
	// A corrupted checkpoint refuses to restore.
	ck.words[1] ^= 1 << 5
	if ck.Verify() {
		t.Fatal("corrupted checkpoint should fail verification")
	}
	if err := ck.Restore(a); err == nil {
		t.Fatal("restore from corrupted checkpoint should error")
	}
	// Length mismatch.
	short := kernels.NewArray(c, []float64{1})
	ck2 := Take(a)
	if err := ck2.Restore(short); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestGuardedJacobiClean(t *testing.T) {
	p := kernels.NewProblem(48)
	res, err := GuardedJacobi(p, codec(t, "posit32"), GuardedOpts{MaxIters: 600, Interval: 25, GrowFactor: 1.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged || res.Rollbacks != 0 {
		t.Fatalf("clean guarded run: %+v", res)
	}
	if res.Checkpoints < 2 {
		t.Fatalf("expected periodic checkpoints, got %d", res.Checkpoints)
	}
}

// TestGuardedJacobiRecovers: a catastrophic upper-bit flip triggers a
// rollback, and the guarded run ends close to the clean run — while
// the unguarded solve carries the damage.
func TestGuardedJacobiRecovers(t *testing.T) {
	p := kernels.NewProblem(48)
	for _, name := range []string{"ieee32", "posit32"} {
		c := codec(t, name)
		inj := kernels.Injection{Iter: 100, Index: 20, Bit: 30}

		clean, err := GuardedJacobi(p, c, GuardedOpts{MaxIters: 600, Interval: 25, GrowFactor: 1.01})
		if err != nil {
			t.Fatal(err)
		}
		guarded, err := GuardedJacobi(p, c, GuardedOpts{MaxIters: 600, Interval: 25, GrowFactor: 1.01, Inject: &inj})
		if err != nil {
			t.Fatal(err)
		}
		bare, err := p.Jacobi(c, 600, 0, &inj, false)
		if err != nil {
			t.Fatal(err)
		}
		if guarded.Rollbacks == 0 && name == "ieee32" {
			t.Errorf("%s: catastrophic flip did not trigger rollback", name)
		}
		if guarded.SolutionErr > clean.SolutionErr*1.5 {
			t.Errorf("%s: guarded error %g vs clean %g", name, guarded.SolutionErr, clean.SolutionErr)
		}
		if name == "ieee32" && !(bare.SolutionErr > 1e6*guarded.SolutionErr) {
			t.Errorf("%s: bare error %g should dwarf guarded %g", name, bare.SolutionErr, guarded.SolutionErr)
		}
	}
}

func TestGuardedJacobiBadInterval(t *testing.T) {
	p := kernels.NewProblem(16)
	if _, err := GuardedJacobi(p, codec(t, "posit32"), GuardedOpts{MaxIters: 10, GrowFactor: 1.01}); err == nil {
		t.Fatal("zero interval should error")
	}
}

// TestGuardedJacobiRollbackBudget: a divergence monitor that can never
// be satisfied (GrowFactor 0 flags every positive residual as
// corruption) would roll back forever; the budget turns that livelock
// into a distinct, inspectable error.
func TestGuardedJacobiRollbackBudget(t *testing.T) {
	p := kernels.NewProblem(32)
	res, err := GuardedJacobi(p, codec(t, "posit32"), GuardedOpts{
		MaxIters: 10000, Interval: 5, GrowFactor: 0, MaxRollbacks: 3,
	})
	if !errors.Is(err, ErrRollbackBudget) {
		t.Fatalf("err = %v, want ErrRollbackBudget", err)
	}
	if res.Rollbacks != 3 {
		t.Fatalf("rollbacks = %d, want exactly the budget (3)", res.Rollbacks)
	}
	// The default budget kicks in when the option is zero.
	res, err = GuardedJacobi(p, codec(t, "posit32"), GuardedOpts{
		MaxIters: 10000, Interval: 5, GrowFactor: 0,
	})
	if !errors.Is(err, ErrRollbackBudget) {
		t.Fatalf("default budget: err = %v, want ErrRollbackBudget", err)
	}
	if res.Rollbacks != DefaultMaxRollbacks {
		t.Fatalf("rollbacks = %d, want DefaultMaxRollbacks", res.Rollbacks)
	}
}
