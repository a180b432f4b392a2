// Package chaos is the fault-injection layer for the service plane:
// a reverse proxy that sits in front of a positserve instance (or
// between a coordinator and its workers) and injects the failure
// modes the paper's resiliency argument assumes away — added latency,
// TCP connection resets, truncated and corrupted response bodies, and
// synthetic 5xx bursts. Faults fire on a deterministic schedule
// derived from a seed and the request sequence number, so a failing
// chaos run replays exactly: same seed, same request order, same
// faults. cmd/chaosproxy is the standalone process wrapper,
// cmd/positload embeds a proxy for its -smoke self-test, and
// scripts/load_e2e.sh strings proxies between a live coordinator and
// its worker fleet. docs/RESILIENCE.md ("Chaos & load") is the fault
// matrix reference.
package chaos

import (
	"flag"
	"math/rand/v2"
	"time"
)

// Fault modes a request can draw, in decision precedence order (a
// request suffers at most one of these, plus optional latency).
const (
	modeNone     = iota // forward untouched
	modeReset           // slam the client connection before forwarding
	mode5xx             // answer a synthetic 5xx without forwarding
	modeTruncate        // forward but cut the response body short
	modeCorrupt         // forward but flip one byte of the response body
)

// Faults configures a Proxy's fault schedule. The zero value injects
// nothing (a transparent proxy). Probabilities are per request in
// [0, 1]; at most one connection/body fault fires per request, rolled
// in reset → 5xx → truncate → corrupt precedence, and latency rolls
// independently so a delayed request can also be reset or corrupted —
// the compound case real networks produce.
type Faults struct {
	// Seed keys the deterministic schedule: the fault decision for
	// request N is a pure function of (Seed, N), so a run replays by
	// reusing the seed and request order.
	Seed uint64
	// LatencyP is the probability of injecting added latency.
	LatencyP float64
	// LatencyMin is the smallest injected delay.
	LatencyMin time.Duration
	// LatencyMax bounds the injected delay (uniform in [min, max)).
	LatencyMax time.Duration
	// ResetP is the probability of a TCP reset before forwarding.
	ResetP float64
	// Error5xxP is the probability of a synthetic 5xx answer (the
	// upstream is never contacted).
	Error5xxP float64
	// TruncateP is the probability of cutting the response body short
	// and slamming the connection — the mid-stream worker death case.
	TruncateP float64
	// CorruptP is the probability of flipping one byte of the response
	// body while preserving its length — the undetected-without-CRC
	// corruption case.
	CorruptP float64
}

// Register binds the standard -chaos-* flag set onto fs, writing into
// f. cmd/chaosproxy and cmd/positload share it so the two processes
// spell an identical fault matrix identically.
func (f *Faults) Register(fs *flag.FlagSet) {
	fs.Uint64Var(&f.Seed, "chaos-seed", 1, "fault schedule seed (same seed + request order replays the same faults)")
	fs.Float64Var(&f.LatencyP, "chaos-latency-p", 0, "per-request probability of injected latency")
	fs.DurationVar(&f.LatencyMin, "chaos-latency-min", 5*time.Millisecond, "smallest injected delay")
	fs.DurationVar(&f.LatencyMax, "chaos-latency-max", 250*time.Millisecond, "largest injected delay (exclusive)")
	fs.Float64Var(&f.ResetP, "chaos-reset-p", 0, "per-request probability of a TCP connection reset")
	fs.Float64Var(&f.Error5xxP, "chaos-5xx-p", 0, "per-request probability of a synthetic 5xx response")
	fs.Float64Var(&f.TruncateP, "chaos-truncate-p", 0, "per-request probability of a truncated response body")
	fs.Float64Var(&f.CorruptP, "chaos-corrupt-p", 0, "per-request probability of a single corrupted response byte")
}

// decision is the fault plan for one proxied request, fully determined
// by (Faults.Seed, request sequence number).
type decision struct {
	latency time.Duration // 0 means no injected delay
	mode    int           // one of the mode* constants
	status  int           // synthetic status for mode5xx
	cutAt   int64         // body bytes to pass through before truncating
	flipAt  int64         // body offset whose byte is XORed for modeCorrupt
}

// decide computes request seq's fault plan. Every random draw happens
// unconditionally so the schedule of one fault type does not shift
// when another type's probability is tuned — a replay with only the
// 5xx rate changed still resets and corrupts the same requests.
func (f Faults) decide(seq uint64) decision {
	rng := rand.New(rand.NewPCG(f.Seed, seq))
	var d decision
	uLat := rng.Float64()
	uReset, u5xx, uTrunc, uCorr := rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()
	latFrac := rng.Float64()
	d.status = []int{500, 502, 503}[rng.IntN(3)]
	d.cutAt = 16 + rng.Int64N(4096)
	d.flipAt = rng.Int64N(4096)
	if uLat < f.LatencyP {
		span := f.LatencyMax - f.LatencyMin
		if span < 0 {
			span = 0
		}
		d.latency = f.LatencyMin + time.Duration(latFrac*float64(span))
	}
	switch {
	case uReset < f.ResetP:
		d.mode = modeReset
	case u5xx < f.Error5xxP:
		d.mode = mode5xx
	case uTrunc < f.TruncateP:
		d.mode = modeTruncate
	case uCorr < f.CorruptP:
		d.mode = modeCorrupt
	}
	return d
}
