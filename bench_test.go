// Benchmarks: one per table and figure of the paper's evaluation. Each
// benchmark regenerates its result from the simulation substrate via
// internal/experiments, so `go test -bench=.` reproduces the whole
// evaluation and times it. Quick-mode repeat counts are used so the full
// battery completes in minutes; run the fgrepro CLI without -quick for the
// paper-scale campaign.
package fivegsim

import (
	"context"
	"testing"

	"fivegsim/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{Seed: 1, Quick: true}
	for i := 0; i < b.N; i++ {
		ts, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(ts) == 0 || len(ts[0].Rows) == 0 {
			b.Fatalf("%s produced no output", id)
		}
	}
}

// §2: dataset statistics.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// §3: network performance.
func BenchmarkFig1(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig23(b *testing.B) { benchExperiment(b, "fig23") }
func BenchmarkFig24(b *testing.B) { benchExperiment(b, "fig24") }

// §4: RRC and power.
func BenchmarkFig10(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig25(b *testing.B)      { benchExperiment(b, "fig25") }
func BenchmarkTable2(b *testing.B)     { benchExperiment(b, "table2") }
func BenchmarkTable7(b *testing.B)     { benchExperiment(b, "table7") }
func BenchmarkFig11(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)      { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)      { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)      { benchExperiment(b, "fig16") }
func BenchmarkFig26(b *testing.B)      { benchExperiment(b, "fig26") }
func BenchmarkFig27(b *testing.B)      { benchExperiment(b, "fig27") }
func BenchmarkTable3(b *testing.B)     { benchExperiment(b, "table3") }
func BenchmarkTable8(b *testing.B)     { benchExperiment(b, "table8") }
func BenchmarkTable9(b *testing.B)     { benchExperiment(b, "table9") }
func BenchmarkValidation(b *testing.B) { benchExperiment(b, "validation") }

// §5: video streaming.
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18a(b *testing.B) { benchExperiment(b, "fig18a") }
func BenchmarkFig18b(b *testing.B) { benchExperiment(b, "fig18b") }
func BenchmarkFig18c(b *testing.B) { benchExperiment(b, "fig18c") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// Ablations and extensions.
func BenchmarkAblationTail(b *testing.B)            { benchExperiment(b, "ablation-tail") }
func BenchmarkAblationWmem(b *testing.B)            { benchExperiment(b, "ablation-wmem") }
func BenchmarkAblationChunkBuffer(b *testing.B)     { benchExperiment(b, "ablation-chunk-buffer") }
func BenchmarkAblationSwitchThreshold(b *testing.B) { benchExperiment(b, "ablation-switch-threshold") }
func BenchmarkExtensionMidBand(b *testing.B)        { benchExperiment(b, "extension-midband") }
func BenchmarkExtensionBBR(b *testing.B)            { benchExperiment(b, "extension-bbr") }
func BenchmarkExtensionAbandon(b *testing.B)        { benchExperiment(b, "extension-abandon") }
func BenchmarkLongitudinal(b *testing.B)            { benchExperiment(b, "longitudinal") }

// Whole-campaign runners: RunManyCtx with one worker (the serial baseline)
// and with GOMAXPROCS workers. On a multi-core machine the parallel battery
// should finish several times faster with byte-identical tables (asserted
// by TestRunAllParallelMatchesRunAll in internal/experiments).
func BenchmarkRunAllSerial(b *testing.B) { benchBattery(b, 1) }

func BenchmarkRunAllParallel(b *testing.B) { benchBattery(b, 0) }

func benchBattery(b *testing.B, workers int) {
	cfg := experiments.Config{Seed: 1, Quick: true}
	ids := experiments.IDs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs, err := experiments.RunManyCtx(context.Background(), cfg, ids, workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) == 0 {
			b.Fatal("RunManyCtx produced no results")
		}
	}
}

// §6: web browsing.
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)  { benchExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)  { benchExperiment(b, "fig21") }
func BenchmarkFig22(b *testing.B)  { benchExperiment(b, "fig22") }
