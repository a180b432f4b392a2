package positres_test

// Facade tests: exercise the public API exactly as a downstream user
// (or the examples) would, without touching internal packages.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"positres"
)

func TestFacadePositArithmetic(t *testing.T) {
	p := positres.P32FromFloat64(186.25)
	if p.Float64() != 186.25 {
		t.Fatal("round trip")
	}
	if got := p.Add(positres.P32FromFloat64(13.75)).Float64(); got != 200 {
		t.Errorf("add: %v", got)
	}
	if got := p.Mul(positres.P32FromFloat64(2)).Float64(); got != 372.5 {
		t.Errorf("mul: %v", got)
	}
	if s := positres.PositBitString(positres.Std32, uint64(p.Bits())); !strings.HasPrefix(s, "0|110|11|") {
		t.Errorf("bit string: %s", s)
	}
	f := positres.DecodePositFields(positres.Std32, uint64(p.Bits()))
	if f.K != 2 || f.R != 1 {
		t.Errorf("fields: %+v", f)
	}
}

func TestFacadeQuire(t *testing.T) {
	q := positres.NewQuire(positres.Std32)
	q.AddProduct(uint64(positres.P32FromFloat64(3).Bits()), uint64(positres.P32FromFloat64(4).Bits()))
	q.AddPosit(uint64(positres.P32FromFloat64(2).Bits()))
	if got := positres.P32FromBits(uint32(q.ToPosit())).Float64(); got != 14 {
		t.Errorf("quire: %v", got)
	}
	a := []positres.Posit32{positres.P32FromFloat64(1), positres.P32FromFloat64(2)}
	b := []positres.Posit32{positres.P32FromFloat64(10), positres.P32FromFloat64(20)}
	if positres.DotP32(a, b).Float64() != 50 {
		t.Error("DotP32")
	}
}

func TestFacadeFormatsAndFields(t *testing.T) {
	c, err := positres.LookupFormat("posit32")
	if err != nil || c.Width() != 32 {
		t.Fatal("LookupFormat")
	}
	if _, err := positres.LookupFormat("nope"); err == nil {
		t.Error("unknown format should error")
	}
	f, err := positres.LookupField("CESM/CLOUD")
	if err != nil {
		t.Fatal(err)
	}
	data := positres.WidenFloat32(f.Generate(1000, 1))
	if len(data) != 1000 {
		t.Fatal("generate")
	}
	s := positres.Summarize(data)
	if s.Count != 1000 || s.Min < 0 || s.Max > 1 {
		t.Errorf("summary: %+v", s)
	}
}

func TestFacadeCampaign(t *testing.T) {
	f, err := positres.LookupField("Hurricane/Vf30")
	if err != nil {
		t.Fatal(err)
	}
	data := positres.WidenFloat32(f.Generate(5000, 1))
	codec, err := positres.LookupFormat("posit16")
	if err != nil {
		t.Fatal(err)
	}
	cfg := positres.DefaultCampaignConfig()
	cfg.TrialsPerBit = 20
	res, err := positres.RunCampaign(cfg, codec, f.Key(), data)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 16*20 {
		t.Fatalf("trials: %d", len(res.Trials))
	}
	aggs := positres.AggregateByBit(res.Trials)
	if len(aggs) != 16 {
		t.Fatalf("aggs: %d", len(aggs))
	}
	// CSV through the facade: header plus one row per trial.
	var buf bytes.Buffer
	if err := positres.WriteTrialsCSV(&buf, res.Trials); err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(buf.String(), "\n"); rows != len(res.Trials)+1 {
		t.Fatalf("csv: %d lines, want %d", rows, len(res.Trials)+1)
	}
}

func TestFacadeAnalysis(t *testing.T) {
	b := uint64(positres.P32FromFloat64(0.5).Bits())
	pf := positres.AnalyzePositFlip(positres.Std32, b, 30)
	if pf.OldVal != 0.5 || pf.RelErr <= 0 {
		t.Errorf("posit flip: %+v", pf)
	}
	ifl := positres.AnalyzeIEEEFlip(positres.Binary32, positres.Binary32.Encode(0.5), 31)
	if ifl.NewVal != -0.5 || ifl.RelErr != 2 {
		t.Errorf("ieee flip: %+v", ifl)
	}
}

func TestFacadeFigures(t *testing.T) {
	q := positres.Budget{DatasetN: 10000, TrialsPerBit: 10, Seed: 1}
	if out := positres.Fig7().Render(); !strings.Contains(out, "decimal digits") {
		t.Error("Fig7")
	}
	if c := positres.Fig10(q); len(c.Series) != 8 {
		t.Error("Fig10")
	}
	if tb := positres.Table1(q); len(tb.Rows) != 16 {
		t.Error("Table1")
	}
	if p := positres.Fig20(q); len(p.Groups) < 1 {
		t.Error("Fig20")
	}
	if tb := positres.SolverImpactTable(q); len(tb.Rows) != 24 {
		t.Error("SolverImpactTable")
	}
	if tb := positres.ProtectionTable(q); len(tb.Rows) != 16 {
		t.Error("ProtectionTable")
	}
	if tb := positres.SoftErrorTable(q); len(tb.Rows) != 4 {
		t.Error("SoftErrorTable")
	}
	if positres.QuickBudget.TrialsPerBit <= 0 {
		t.Error("QuickBudget")
	}
}

func TestFacadeDurableCampaign(t *testing.T) {
	// One canonical spec drives validation, durable execution, and the
	// service API alike.
	cs := &positres.CampaignSpec{
		Fields:       []string{"CESM/CLOUD"},
		Formats:      []string{"posit8"},
		N:            128,
		TrialsPerBit: 2,
		Seed:         3,
	}
	if verr := cs.Validate(); verr != nil {
		t.Fatalf("Validate: %s: %s", verr.Code, verr.Message)
	}
	rep, err := positres.RunDurable(context.Background(), positres.RunnerConfig{
		Spec: cs, Dir: t.TempDir(), Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() || len(rep.Results) != 1 || rep.Results[0] == nil {
		t.Fatalf("report = %+v", rep)
	}
	if got := len(rep.Results[0].Trials); got != 8*2 {
		t.Fatalf("trials = %d, want 16", got)
	}

	// Bad specs fail with the stable error code shared with the CLI
	// and the HTTP API.
	bad := &positres.CampaignSpec{Fields: []string{"CESM/CLOUD"}, Formats: []string{"posit7"}}
	verr := bad.Validate()
	if verr == nil || verr.Code != "unknown_format" {
		t.Fatalf("Validate = %v, want unknown_format", verr)
	}

	// The service client constructs (no server needed for the type
	// surface check).
	var client *positres.ServeClient = positres.NewServeClient("http://127.0.0.1:1", nil)
	if client == nil {
		t.Fatal("NewServeClient returned nil")
	}
	var apiErr *positres.ServeAPIError = &positres.ServeAPIError{Status: 429, Code: "queue_full", Message: "x"}
	if !strings.Contains(apiErr.Error(), "queue_full") {
		t.Fatalf("APIError.Error() = %q", apiErr.Error())
	}
}
