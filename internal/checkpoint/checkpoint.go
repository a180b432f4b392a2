// Package checkpoint implements in-memory checkpoint/restart with
// integrity checking — the protection scheme of the paper's refs [37]
// (Ni et al., ACR: automatic checkpoint/restart for soft and hard
// error protection) and [23] (Fiala et al.): solver state is
// snapshotted periodically as raw format words guarded by a CRC, a
// cheap progress monitor detects corruption, and the computation rolls
// back to the last good snapshot instead of silently finishing wrong.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"positres/internal/kernels"
	"positres/internal/numfmt"
)

// Checkpoint is one integrity-protected snapshot of an array.
type Checkpoint struct {
	words []uint64
	crc   uint32
}

// Take snapshots the array.
func Take(a *kernels.Array) *Checkpoint {
	c := &Checkpoint{words: a.Snapshot()}
	c.crc = checksum(c.words)
	return c
}

func checksum(words []uint64) uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(buf[:], w)
		//positlint:ignore errdrop hash.Hash.Write is documented to never return an error
		h.Write(buf[:])
	}
	return h.Sum32()
}

// Verify reports whether the snapshot itself is uncorrupted (a
// checkpoint living in the same fault-prone memory needs its own
// integrity check, as ref [37] argues).
func (c *Checkpoint) Verify() bool { return checksum(c.words) == c.crc }

// Restore writes the snapshot back into the array; it refuses if the
// snapshot fails its own integrity check.
func (c *Checkpoint) Restore(a *kernels.Array) error {
	if !c.Verify() {
		return fmt.Errorf("checkpoint: snapshot corrupted (crc mismatch)")
	}
	return a.RestoreSnapshot(c.words)
}

// GuardedResult reports a guarded solve.
type GuardedResult struct {
	kernels.SolveResult
	// Rollbacks counts restarts from a checkpoint.
	Rollbacks int
	// Checkpoints counts snapshots taken.
	Checkpoints int
}

// DefaultMaxRollbacks is the rollback budget when GuardedOpts leaves
// MaxRollbacks zero.
const DefaultMaxRollbacks = 16

// ErrRollbackBudget reports a guarded solve that kept rolling back
// without making progress — persistent corruption or a divergence
// monitor that can never be satisfied. Without this budget the solver
// livelocks: restore, detect, restore, forever. Callers distinguish it
// with errors.Is.
var ErrRollbackBudget = errors.New("checkpoint: rollback budget exhausted")

// GuardedOpts parameterizes GuardedJacobi.
type GuardedOpts struct {
	// MaxIters bounds the sweep count.
	MaxIters int
	// Interval is the number of sweeps between snapshots; must be
	// positive.
	Interval int
	// GrowFactor is the divergence monitor: a residual growing by more
	// than this factor between snapshots triggers a rollback.
	GrowFactor float64
	// MaxRollbacks bounds restarts from a checkpoint; when corruption
	// is detected with the budget already spent, the solve aborts with
	// ErrRollbackBudget. Zero means DefaultMaxRollbacks.
	MaxRollbacks int
	// Inject, when non-nil, flips one stored bit mid-solve.
	Inject *kernels.Injection
}

// GuardedJacobi runs the Jacobi iteration with checkpoint/restart: a
// snapshot every Interval sweeps, and a divergence monitor (residual
// growing by more than GrowFactor between snapshots) triggers a
// rollback, bounded by MaxRollbacks. Inject, when non-nil, flips one
// stored bit mid-solve — the guarded run detects the damage and
// recovers, where the bare run (kernels.Problem.Jacobi) carries it to
// the end.
func GuardedJacobi(p *kernels.Problem, codec numfmt.Codec, opts GuardedOpts) (GuardedResult, error) {
	maxIters, interval, growFactor, inject := opts.MaxIters, opts.Interval, opts.GrowFactor, opts.Inject
	maxRollbacks := opts.MaxRollbacks
	if maxRollbacks <= 0 {
		maxRollbacks = DefaultMaxRollbacks
	}
	if interval <= 0 {
		return GuardedResult{}, fmt.Errorf("checkpoint: interval must be positive")
	}
	n := p.Op.N
	x := kernels.NewArray(codec, make([]float64, n))
	xNew := kernels.NewArray(codec, make([]float64, n))
	b := kernels.NewArray(codec, p.B)
	r := kernels.NewArray(codec, make([]float64, n))

	var res GuardedResult
	ck := Take(x)
	res.Checkpoints++
	lastResidual := p.Op.Residual(b, x, r)

	for it := 0; it < maxIters; it++ {
		if inject != nil && it == inject.Iter {
			x.InjectBitFlip(inject.Index, inject.Bit)
		}
		for i := 0; i < n; i++ {
			v := b.Load(i)
			if i > 0 {
				v += x.Load(i - 1)
			}
			if i < n-1 {
				v += x.Load(i + 1)
			}
			xNew.Store(i, v/2)
		}
		x, xNew = xNew, x
		res.Iters = it + 1

		if (it+1)%interval == 0 {
			rn := p.Op.Residual(b, x, r)
			if math.IsNaN(rn) || math.IsInf(rn, 0) || rn > lastResidual*growFactor {
				// Corruption detected: roll back to the last good state —
				// unless the budget is spent, in which case restarting
				// again would livelock on the same damage.
				if res.Rollbacks >= maxRollbacks {
					return res, fmt.Errorf("checkpoint: corruption persists after %d rollbacks: %w", res.Rollbacks, ErrRollbackBudget)
				}
				if err := ck.Restore(x); err != nil {
					return res, err
				}
				res.Rollbacks++
				continue
			}
			// Progress is healthy: refresh the checkpoint.
			ck = Take(x)
			res.Checkpoints++
			lastResidual = rn
		}
	}
	res.FinalResidual = p.Op.Residual(b, x, r)
	res.SolutionErr = solutionErr(p, x)
	res.Diverged = math.IsNaN(res.FinalResidual) || math.IsInf(res.FinalResidual, 0)
	return res, nil
}

func solutionErr(p *kernels.Problem, x *kernels.Array) float64 {
	var s float64
	for i := 0; i < x.Len(); i++ {
		d := x.Load(i) - p.XStar[i]
		s += d * d
	}
	return math.Sqrt(s)
}
