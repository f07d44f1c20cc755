package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gpa/internal/arch"
	"gpa/internal/kernels"
)

// TestTable3SummaryCoversMatchedRowsOnly: a rank-0 row (the optimizer
// does not apply on this model, Estimated == 0) must not drag the
// estimated geomean to zero or dilute the mean error, and the -json
// document must carry exactly the numbers the printed footer shows.
func TestTable3SummaryCoversMatchedRowsOnly(t *testing.T) {
	rows := kernels.All()[:3]
	outs := []*kernels.Outcome{
		{Achieved: 1.5, Estimated: 1.2, Rank: 1, Error: 0.2},
		{Achieved: 1.1, Estimated: 0, Rank: 0, Error: 0},
		{Achieved: 2.0, Estimated: 2.7, Rank: 3, Error: 0.35},
	}
	sum := summarize(outs)
	if want := kernels.GeoMean([]float64{1.2, 2.7}); sum.estimated != want || want <= 0 {
		t.Errorf("estimated geomean %v, want %v over the two matched rows", sum.estimated, want)
	}
	if want := (0.2 + 0.35) / 2; sum.meanErr != want {
		t.Errorf("mean error %v, want %v over the two matched rows", sum.meanErr, want)
	}
	if want := kernels.GeoMean([]float64{1.5, 1.1, 2.0}); sum.achieved != want || sum.rows != 3 {
		t.Errorf("achieved geomean %v over %d rows, want %v over 3", sum.achieved, sum.rows, want)
	}

	gpu := arch.TuringT4()
	doc := newTable3JSON(kernels.RunOptions{GPU: gpu, Seed: 11}, rows, outs, sum)
	if doc.Arch != "t4" || doc.Model != gpu.Name {
		t.Errorf("document names arch %q model %q, want t4 / %q", doc.Arch, doc.Model, gpu.Name)
	}
	var buf bytes.Buffer
	printTable3(&buf, rows, outs, sum)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	footer := lines[len(lines)-1]
	want := fmt.Sprintf("%8.2fx %8.2fx %8.2fx %8.2fx %5.1f%%",
		doc.GeomeanAchieved, 1.22, doc.GeomeanEstimated, 1.26, doc.MeanError*100)
	if doc.GeomeanEstimated <= 0 || !strings.HasSuffix(footer, want) {
		t.Errorf("printed footer and -json summary disagree:\n footer %q\n json   %q", footer, want)
	}
}
