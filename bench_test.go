package positres

// bench_test.go is the paper's benchmark harness: one benchmark per
// table/figure of the evaluation section (regenerating the figure's
// data from scratch each iteration) plus extension and ablation
// benches, and micro-benchmarks of the substrate operations. Render
// the actual figures with `go run ./cmd/positreport`; run the full
// 313-trials-per-bit scale with `-budget paper` there.

import (
	"context"
	"math"
	"testing"

	"positres/internal/core"
	"positres/internal/ecc"
	"positres/internal/figures"
	"positres/internal/kernels"
	"positres/internal/numfmt"
	"positres/internal/posit"
	"positres/internal/sdrbench"
	"positres/internal/stats"
)

// benchBudget keeps each figure regeneration fast enough to iterate.
var benchBudget = figures.Budget{DatasetN: 50_000, TrialsPerBit: 40, Seed: 1}

// BenchmarkTable1DatasetSummary regenerates Table 1: synthesize every
// field and compute its summary statistics.
func BenchmarkTable1DatasetSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figures.Table1(benchBudget)
		if len(t.Rows) != 16 {
			b.Fatal("table rows")
		}
	}
}

// BenchmarkFig3IEEESingleValueSweep regenerates Fig. 3: the per-bit
// relative error of 186.25 in binary32.
func BenchmarkFig3IEEESingleValueSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.Fig3()
		if len(c.Series[0].X) != 32 {
			b.Fatal("sweep size")
		}
	}
}

// BenchmarkFig7AccuracyProfile regenerates Fig. 7: decimal accuracy vs
// magnitude for posit32 and binary32.
func BenchmarkFig7AccuracyProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.Fig7()
		if len(c.Series) != 2 {
			b.Fatal("profile series")
		}
	}
}

// BenchmarkFig10MeanRelErrorByBit regenerates Fig. 10: posit vs IEEE
// mean relative error per bit over Nyx and CESM fields. The reported
// metric "advantage" is the IEEE/posit upper-bit error ratio.
func BenchmarkFig10MeanRelErrorByBit(b *testing.B) {
	var advantage float64
	for i := 0; i < b.N; i++ {
		f := figures.ComputeFindings(benchBudget, "CESM/RELHUM")
		advantage = f.AdvantageRatio
		if advantage < 1e6 {
			b.Fatalf("posit advantage collapsed: %g", advantage)
		}
	}
	b.ReportMetric(math.Log10(advantage), "log10(advantage)")
}

// BenchmarkFig11RegimeBucketsGT1 regenerates Fig. 11: regime-bucketed
// error curves for posits with |v| > 1.
func BenchmarkFig11RegimeBucketsGT1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.Fig11(benchBudget)
		if len(c.Series) == 0 {
			b.Fatal("no regime buckets")
		}
	}
}

// BenchmarkFig14RegimeBucketsLT1 regenerates Fig. 14: the |v| < 1
// population, whose R_k flips plateau at relative error ≈ 1.
func BenchmarkFig14RegimeBucketsLT1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.Fig14(benchBudget)
		if len(c.Series) == 0 {
			b.Fatal("no regime buckets")
		}
	}
}

// BenchmarkFig16FractionError regenerates Fig. 16: fraction-bit error
// of k=1 posits on HACC and Hurricane data.
func BenchmarkFig16FractionError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.Fig16(benchBudget)
		if len(c.Series) != 2 {
			b.Fatal("series")
		}
	}
}

// BenchmarkFig18ExponentVsFraction regenerates Fig. 18: the exponent
// bits continue the fraction's smooth trend (no spike).
func BenchmarkFig18ExponentVsFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.Fig18(benchBudget)
		if len(c.Series) != 2 {
			b.Fatal("series")
		}
	}
}

// BenchmarkFig20SignBitByRegime regenerates Fig. 20: sign-bit absolute
// error box plots by regime size.
func BenchmarkFig20SignBitByRegime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := figures.Fig20(benchBudget)
		if len(p.Groups) < 2 {
			b.Fatal("groups")
		}
	}
}

// BenchmarkExtPositWidthSweep runs the future-work 8/16/32/64-bit
// campaigns.
func BenchmarkExtPositWidthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.WidthSweep(benchBudget, "Hurricane/Vf30")
		if len(c.Series) != 4 {
			b.Fatal("series")
		}
	}
}

// BenchmarkExtMultiBitFlips runs the future-work multi-bit analysis.
func BenchmarkExtMultiBitFlips(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figures.MultiBitTable(benchBudget, "HACC/vy")
		if len(t.Rows) != 6 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkAblationES compares legacy posit exponent sizes.
func BenchmarkAblationES(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.ESAblation(benchBudget, "CESM/RELHUM")
		if len(c.Series) != 4 {
			b.Fatal("series")
		}
	}
}

// BenchmarkSolverImpact runs the end-to-end mid-solve fault study
// (Jacobi + CG, posit32 vs ieee32, six bit positions each).
func BenchmarkSolverImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figures.SolverImpactTable(benchBudget)
		if len(t.Rows) != 24 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkProtectionSweep repeats the worst injections under SEC-DED
// protection: faults are corrected, faulty runs match clean runs.
func BenchmarkProtectionSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figures.ProtectionTable(benchBudget)
		if len(t.Rows) != 16 {
			b.Fatal("rows")
		}
	}
}

// ---- substrate micro-benchmarks ----

var sinkU64 uint64
var sinkF64 float64

func BenchmarkP32Encode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkU64 = posit.EncodeFloat64(posit.Std32, 186.25+float64(i&1023))
	}
}

func BenchmarkP32Decode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkF64 = posit.DecodeFloat64(posit.Std32, uint64(0x40000000+i&0xFFFFF))
	}
}

// BenchmarkP8DecodeLUT / BenchmarkP8DecodeGeneric measure the 256-entry
// decode table against the generic field-walking decoder it replaced;
// the P16 pair does the same for the 65536-entry table.
func BenchmarkP8DecodeLUT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkF64 = posit.DecodeFloat64(posit.Std8, uint64(i&0xFF))
	}
}

func BenchmarkP8DecodeGeneric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkF64 = posit.DecodeFloat64Generic(posit.Std8, uint64(i&0xFF))
	}
}

func BenchmarkP16DecodeLUT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkF64 = posit.DecodeFloat64(posit.Std16, uint64(i&0xFFFF))
	}
}

func BenchmarkP16DecodeGeneric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkF64 = posit.DecodeFloat64Generic(posit.Std16, uint64(i&0xFFFF))
	}
}

// BenchmarkP32DecodeCLZ / BenchmarkP32DecodeGeneric measure the
// branchless count-leading-zeros decoder the 32- and 64-bit formats
// use against the generic decoder; the P64 pair does the same at
// width 64.
func BenchmarkP32DecodeCLZ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkF64 = posit.DecodeFloat64CLZ(posit.Std32, uint64(0x40000000+i&0xFFFFF))
	}
}

func BenchmarkP32DecodeGeneric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkF64 = posit.DecodeFloat64Generic(posit.Std32, uint64(0x40000000+i&0xFFFFF))
	}
}

func BenchmarkP64DecodeCLZ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkF64 = posit.DecodeFloat64CLZ(posit.Std64, uint64(0x4000000000000000+i&0xFFFFF))
	}
}

func BenchmarkP64DecodeGeneric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkF64 = posit.DecodeFloat64Generic(posit.Std64, uint64(0x4000000000000000+i&0xFFFFF))
	}
}

func BenchmarkP32Add(b *testing.B) {
	x := uint64(P32FromFloat64(186.25).Bits())
	y := uint64(P32FromFloat64(0.0625).Bits())
	for i := 0; i < b.N; i++ {
		sinkU64 = posit.Add(posit.Std32, x, y)
	}
}

func BenchmarkP32Mul(b *testing.B) {
	x := uint64(P32FromFloat64(186.25).Bits())
	y := uint64(P32FromFloat64(3.5).Bits())
	for i := 0; i < b.N; i++ {
		sinkU64 = posit.Mul(posit.Std32, x, y)
	}
}

func BenchmarkP32Div(b *testing.B) {
	x := uint64(P32FromFloat64(186.25).Bits())
	y := uint64(P32FromFloat64(3.5).Bits())
	for i := 0; i < b.N; i++ {
		sinkU64 = posit.Div(posit.Std32, x, y)
	}
}

func BenchmarkP32Sqrt(b *testing.B) {
	x := uint64(P32FromFloat64(186.25).Bits())
	for i := 0; i < b.N; i++ {
		sinkU64 = posit.Sqrt(posit.Std32, x)
	}
}

func BenchmarkQuireDot64(b *testing.B) {
	a := make([]Posit32, 64)
	v := make([]Posit32, 64)
	for i := range a {
		a[i] = P32FromFloat64(float64(i) + 0.5)
		v[i] = P32FromFloat64(1.0 / (float64(i) + 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU64 = uint64(posit.DotP32(a, v).Bits())
	}
}

// BenchmarkCampaignTrialThroughput measures raw injection throughput
// (trials/second) for posit32.
func BenchmarkCampaignTrialThroughput(b *testing.B) {
	field, err := sdrbench.Lookup("Hurricane/Vf30")
	if err != nil {
		b.Fatal(err)
	}
	data := sdrbench.ToFloat64(field.Generate(100_000, 1))
	codec, err := numfmt.Lookup("posit32")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.TrialsPerBit = 50
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		r, err := core.Run(context.Background(), cfg, codec, field.Key(), data)
		if err != nil {
			b.Fatal(err)
		}
		total += len(r.Trials)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "trials/s")
}

// BenchmarkStatsSummarize measures the parallel summary reduction used
// for every baseline (Table 1 machinery).
func BenchmarkStatsSummarize(b *testing.B) {
	field, err := sdrbench.Lookup("Nyx/dark-matter-density")
	if err != nil {
		b.Fatal(err)
	}
	data := sdrbench.ToFloat64(field.Generate(1_000_000, 1))
	b.SetBytes(int64(8 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := stats.Summarize(data)
		sinkF64 = s.Mean
	}
}

// BenchmarkExtSoftErrorRate runs the Poisson soft-error Monte Carlo
// (expected corruption per residency epoch, posit vs IEEE).
func BenchmarkExtSoftErrorRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figures.SoftErrorTable(benchBudget)
		if len(t.Rows) != 4 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkExtMLWeightFlips runs the Alouani-style neural-network
// weight-flip campaign (the paper's ref [8] experiment).
func BenchmarkExtMLWeightFlips(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := figures.MLFlipChart(benchBudget)
		if len(c.Series) != 2 {
			b.Fatal("series")
		}
	}
}

// BenchmarkJacobiSolve measures the format-stored Jacobi iteration
// (posit32 storage, 64-point Poisson, 100 sweeps).
func BenchmarkJacobiSolve(b *testing.B) {
	p := kernels.NewProblem(64)
	codec, err := numfmt.Lookup("posit32")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := p.Jacobi(codec, 100, 0, nil, false)
		if err != nil || r.Diverged {
			b.Fatal("solve failed")
		}
	}
}

// BenchmarkCGSolve measures the format-stored CG solve.
func BenchmarkCGSolve(b *testing.B) {
	p := kernels.NewProblem(64)
	codec, err := numfmt.Lookup("posit32")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := p.CG(codec, 200, 1e-6, nil, false)
		if err != nil || r.Diverged {
			b.Fatal("solve failed")
		}
	}
}

// BenchmarkECCEncodeDecode measures the SEC-DED codec.
func BenchmarkECCEncodeDecode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cw := ecc.Encode(uint32(i))
		v, st := ecc.Decode(cw)
		if st != ecc.OK || v != uint32(i) {
			b.Fatal("ecc")
		}
	}
}

// BenchmarkExtDetectionSweep runs the impact-driven SDC detectability
// study (paper ref [19]).
func BenchmarkExtDetectionSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figures.DetectionTable(benchBudget)
		if len(t.Rows) != 2 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkExtABFT runs the Huang–Abraham checksummed-GEMM sweep
// (paper refs [29, 30]).
func BenchmarkExtABFT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figures.ABFTTable(benchBudget)
		if len(t.Rows) != 2 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkExtCheckpointRestart runs the checkpoint/restart recovery
// comparison (paper refs [37], [23]).
func BenchmarkExtCheckpointRestart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figures.CheckpointTable(benchBudget)
		if len(t.Rows) != 6 {
			b.Fatal("rows")
		}
	}
}
