package lint

import (
	"go/ast"
	"go/types"
)

// QuireGuard flags quire accumulation paths with no overflow/NaR
// check. The quire (internal/posit.Quire) is the fixed-point
// accumulator behind every exact dot product, sum and solver residual
// in this repo; when an operand is NaR the quire latches a sticky NaR
// flag, and the 2022 standard's contract is that the ONLY safe ways
// to observe the accumulated value are ToPosit (which propagates NaR
// into the posit domain, where narcheck-guarded consumers handle it)
// and an explicit IsNaR check. The hardware-efficiency literature
// motivating our quire paths ("Closing the Gap Between Float and
// Posit Hardware Efficiency", PAPERS.md) centres on exactly these
// accumulate-then-round pipelines — an accumulation whose result is
// never read back through the guarded API silently discards the NaR
// signal and with it every catastrophic-flip statistic downstream.
//
// The rule tracks quires created locally in a function (NewQuire,
// &Quire{...} and friends) and fires when:
//
//   - the function accumulates into the quire (AddPosit, SubPosit,
//     AddProduct — directly, or through a helper the fact
//     index recorded as accumulating into a quire parameter, in any
//     package) but never consults IsNaR and never rounds out through
//     ToPosit, and the quire does not escape to a caller who could;
//   - the quire is read through Float64 (the diagnostics-only
//     double-rounding readout) with no IsNaR check in the function:
//     NaR decodes to NaN there and poisons float statistics silently.
//
// Accumulation into parameters, receivers and struct fields is exempt
// — the owner of the quire carries the guard obligation — as is any
// quire that escapes (returned, stored, or passed to a function not
// known to be a pure accumulator).
type QuireGuard struct{}

// NewQuireGuard returns the rule.
func NewQuireGuard() *QuireGuard { return &QuireGuard{} }

// ID implements Rule.
func (*QuireGuard) ID() string { return "quireguard" }

// Doc implements Rule.
func (*QuireGuard) Doc() string {
	return "flags quire accumulation with no IsNaR/ToPosit overflow check on the result"
}

// quireState tracks one local quire variable through a function body.
type quireState struct {
	accumPos   ast.Node // first accumulation site (diagnostic anchor)
	hasIsNaR   bool     // IsNaR() consulted on this quire
	hasToPosit bool     // ToPosit() rounds the value out
	float64At  ast.Node // first Float64() readout, if any
	escaped    bool     // leaves the function: caller owns the guard
}

// Check implements Rule.
func (r *QuireGuard) Check(pass *Pass) []Diagnostic {
	var out []Diagnostic
	walkFuncs(pass, func(_ string, _ *ast.FuncType, body *ast.BlockStmt) {
		states := map[types.Object]*quireState{}
		local := func(obj types.Object) *quireState {
			if obj == nil || !isQuireType(obj.Type()) {
				return nil
			}
			// Only quires declared inside this body: parameters,
			// receivers and captured variables belong to someone else.
			if obj.Pos() < body.Pos() || obj.Pos() > body.End() {
				return nil
			}
			st := states[obj]
			if st == nil {
				st = &quireState{}
				states[obj] = st
			}
			return st
		}

		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				// A local quire reaching a return statement escapes.
				if ret, ok := n.(*ast.ReturnStmt); ok {
					for _, res := range ret.Results {
						if st := local(rootIdentObject(pass, res)); st != nil {
							st.escaped = true
						}
					}
				}
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if st := local(rootIdentObject(pass, sel.X)); st != nil {
					switch sel.Sel.Name {
					case "AddPosit", "SubPosit", "AddProduct":
						if st.accumPos == nil {
							st.accumPos = call
						}
					case "IsNaR":
						st.hasIsNaR = true
					case "ToPosit":
						st.hasToPosit = true
					case "Float64":
						if st.float64At == nil {
							st.float64At = call
						}
					}
					// Other methods (Zero, ...) neither guard nor escape.
					return true
				}
			}
			// A local quire passed as an argument: accumulation when the
			// fact index knows the callee accumulates into that
			// parameter, escape otherwise (the callee may guard it).
			accumParams := map[int]bool{}
			if fn := calleeFunc(pass, call); fn != nil && pass.Facts != nil {
				if fact := pass.Facts.QuireAccum[fn.FullName()]; fact != nil {
					for _, pi := range fact.Params {
						accumParams[pi] = true
					}
				}
			}
			for i, arg := range call.Args {
				st := local(rootIdentObject(pass, arg))
				if st == nil {
					continue
				}
				if accumParams[i] {
					if st.accumPos == nil {
						st.accumPos = call
					}
				} else {
					st.escaped = true
				}
			}
			return true
		})

		for _, st := range states {
			if st.float64At != nil && !st.hasIsNaR {
				out = append(out, pass.Diag(r, st.float64At.Pos(),
					"quire read through Float64 with no IsNaR check in this function; NaR decodes to NaN and silently poisons float statistics — check IsNaR or round out via ToPosit"))
			}
			if st.accumPos != nil && !st.hasIsNaR && !st.hasToPosit && st.float64At == nil && !st.escaped {
				out = append(out, pass.Diag(r, st.accumPos.Pos(),
					"quire accumulation is never checked: the accumulated value leaves this function without IsNaR or ToPosit, discarding the overflow/NaR signal"))
			}
		}
	})
	return out
}
