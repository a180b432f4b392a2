// Command positreport regenerates the paper's tables and figures as
// text charts (and optionally TSV series for external plotting).
//
// Usage:
//
//	positreport -fig 10                 # one figure, quick budget
//	positreport -fig all -budget paper  # everything at 313 trials/bit
//	positreport -fig 20 -tsv out/       # also dump TSV series
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"positres/internal/atomicio"
	"positres/internal/core"
	"positres/internal/figures"
	"positres/internal/store"
	"positres/internal/textplot"
)

// renderable is anything with a text rendering.
type renderable interface{ Render() string }

func main() {
	var (
		figFlag    = flag.String("fig", "all", "figure id: table1, 3, 7, 10, 11, 11abs, 14, 16, 18, 20, findings, widths, multibit, ablation, or all")
		budgetName = flag.String("budget", "quick", "quick (fast) or paper (313 trials/bit, 2M elements)")
		tsvDir     = flag.String("tsv", "", "directory to also write TSV series into")
		datasetN   = flag.Int("n", 0, "override dataset sample size")
		trials     = flag.Int("trials", 0, "override trials per bit")
		seed       = flag.Uint64("seed", 0, "override seed")
		fromDir    = flag.String("from", "", "offline mode: render per-bit curves from campaign CSV logs in this directory instead of re-running")
	)
	flag.Parse()

	if *fromDir != "" {
		if err := offline(*fromDir); err != nil {
			fatal(err)
		}
		return
	}

	b := figures.QuickBudget
	if *budgetName == "paper" {
		b = figures.PaperBudget
	}
	if *datasetN > 0 {
		b.DatasetN = *datasetN
	}
	if *trials > 0 {
		b.TrialsPerBit = *trials
	}
	if *seed > 0 {
		b.Seed = *seed
	}

	builders := map[string]func() renderable{
		"table1":     func() renderable { return figures.Table1(b) },
		"3":          func() renderable { return figures.Fig3() },
		"7":          func() renderable { return figures.Fig7() },
		"10":         func() renderable { return figures.Fig10(b) },
		"11":         func() renderable { return figures.Fig11(b) },
		"11abs":      func() renderable { return figures.Fig11AbsErr(b) },
		"14":         func() renderable { return figures.Fig14(b) },
		"16":         func() renderable { return figures.Fig16(b) },
		"18":         func() renderable { return figures.Fig18(b) },
		"20":         func() renderable { return figures.Fig20(b) },
		"findings":   func() renderable { return figures.FindingsTable(b, figures.Fig10Fields) },
		"widths":     func() renderable { return figures.WidthSweep(b, "Hurricane/Vf30") },
		"multibit":   func() renderable { return figures.MultiBitTable(b, "HACC/vy") },
		"ablation":   func() renderable { return figures.ESAblation(b, "CESM/RELHUM") },
		"solver":     func() renderable { return figures.SolverImpactTable(b) },
		"protection": func() renderable { return figures.ProtectionTable(b) },
		"softerror":  func() renderable { return figures.SoftErrorTable(b) },
		"ml":         func() renderable { return figures.MLFlipChart(b) },
		"mltable":    func() renderable { return figures.MLImpactTable(b) },
		"detection":  func() renderable { return figures.DetectionChart(b) },
		"dettable":   func() renderable { return figures.DetectionTable(b) },
		"abft":       func() renderable { return figures.ABFTTable(b) },
		"checkpoint": func() renderable { return figures.CheckpointTable(b) },
		"sdc":        func() renderable { return figures.SDCChart(b, 1) },
		"sdctable":   func() renderable { return figures.SDCTable(b) },
		"repr":       func() renderable { return figures.RepresentationTable(b) },
	}
	order := []string{"table1", "3", "7", "10", "11", "11abs", "14", "16", "18", "20",
		"findings", "widths", "multibit", "ablation", "solver", "protection", "softerror", "ml", "mltable", "detection", "dettable", "abft", "checkpoint", "sdc", "sdctable", "repr"}

	var ids []string
	if *figFlag == "all" {
		ids = order
	} else {
		for _, id := range strings.Split(*figFlag, ",") {
			id = strings.TrimSpace(id)
			if _, ok := builders[id]; !ok {
				fmt.Fprintf(os.Stderr, "positreport: unknown figure %q (known: %s, all)\n", id, strings.Join(order, ", "))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	if *tsvDir != "" {
		if err := os.MkdirAll(*tsvDir, 0o755); err != nil {
			fatal(err)
		}
	}
	for _, id := range ids {
		r := builders[id]()
		fmt.Println(r.Render())
		if *tsvDir != "" {
			if lc, ok := r.(*textplot.LineChart); ok {
				path := filepath.Join(*tsvDir, "fig"+id+".tsv")
				if err := atomicio.WriteFileBytes(path, []byte(lc.TSV())); err != nil {
					fatal(err)
				}
				fmt.Printf("(tsv: %s)\n\n", path)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "positreport:", err)
	os.Exit(1)
}

// offline renders a Fig. 10-style chart and per-input summaries from
// every campaign artifact in dir — the paper's "write them to a log
// file in CSV form for offline analysis and visualization" step, grown
// to three input shapes: trial CSV logs, sealed .pts trial stores, and
// positres-aggregate/v1 JSON documents (what Client.FetchAggregate
// saves). Stores and aggregate documents render from their footer
// summaries alone — O(bits) per input, no trial rescan — so a
// 10⁷-trial campaign plots in milliseconds.
func offline(dir string) error {
	var paths []string
	for _, pat := range []string{"*.csv", "*.pts", "*.json"} {
		m, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return err
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		return fmt.Errorf("no campaign artifacts (.csv, .pts, .json) in %s", dir)
	}
	sort.Strings(paths)
	csvs := map[string]bool{}
	for _, path := range paths {
		if filepath.Ext(path) == ".csv" {
			csvs[strings.TrimSuffix(path, ".csv")] = true
		}
	}
	var series []textplot.Series
	var aggRows []figures.AggSummaryRow
	fieldSummary := &textplot.Table{Header: []string{
		"log", "trials", "catastrophic", "field", "mean rel err (finite)",
	}}
	haveFieldRows := false
	for _, path := range paths {
		switch filepath.Ext(path) {
		case store.Ext:
			if csvs[strings.TrimSuffix(path, store.Ext)] {
				continue // its published CSV renders the same trials (positcampaign -out writes both)
			}
			rd, err := store.Open(path)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			aggs := rd.BitAggs()
			label := rd.Codec() + " " + rd.Field()
			if err := rd.Close(); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			series = append(series, figures.AggSeries(label, aggs))
			aggRows = append(aggRows, figures.AggSummaryRow{Source: filepath.Base(path), Aggs: aggs})
		case ".json":
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			doc, err := store.ReadDoc(f)
			_ = f.Close() // read-only handle; the parse error below dominates
			if err != nil {
				// Not every .json in a results directory is an aggregate
				// document (job.json, telemetry snapshots); skip quietly.
				continue
			}
			aggs := doc.BitAggs()
			series = append(series, figures.AggSeries(doc.Codec+" "+doc.Field, aggs))
			aggRows = append(aggRows, figures.AggSummaryRow{Source: filepath.Base(path), Aggs: aggs})
		default: // .csv
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			trials, err := core.ReadTrialsCSV(f)
			_ = f.Close() // read-only handle; the CSV error below dominates
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			if len(trials) == 0 {
				continue
			}
			label := trials[0].Codec + " " + trials[0].Field
			series = append(series, figures.AggSeries(label, core.AggregateByBit(trials)))
			for name, agg := range core.FieldErrorSummary(trials) {
				fieldSummary.AddRow(filepath.Base(path), fmt.Sprintf("%d", agg.Trials),
					fmt.Sprintf("%d", agg.Catastrophic), name, fmt.Sprintf("%.3g", agg.MeanRelErr))
				haveFieldRows = true
			}
		}
	}
	if len(series) == 0 {
		return fmt.Errorf("no renderable campaign artifacts in %s", dir)
	}
	chart := figures.AggChart("Offline: mean relative error per bit (from campaign artifacts)", series)
	fmt.Println(chart.Render())
	if haveFieldRows {
		fmt.Println(fieldSummary.Render())
	}
	if len(aggRows) > 0 {
		fmt.Println(figures.AggSummaryTable(aggRows).Render())
	}
	return nil
}
