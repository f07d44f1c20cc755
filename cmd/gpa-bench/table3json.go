package main

import (
	"encoding/json"
	"os"

	"gpa/internal/arch"
	"gpa/internal/kernels"
)

// table3JSON is the -json serialization of a Table 3 sweep.
type table3JSON struct {
	// Arch is the model's registry key ("t4"), Model its full name.
	Arch  string          `json:"arch"`
	Model string          `json:"model"`
	Seed  uint64          `json:"seed"`
	Rows  []table3RowJSON `json:"rows"`
	// The printed footer: achieved geomean over all rows, estimated
	// geomean and mean error over matched (rank != 0) rows.
	GeomeanAchieved  float64 `json:"geomeanAchieved"`
	GeomeanEstimated float64 `json:"geomeanEstimated"`
	MeanError        float64 `json:"meanError"`
}

type table3RowJSON struct {
	App            string  `json:"app"`
	Kernel         string  `json:"kernel"`
	Optimization   string  `json:"optimization"`
	Achieved       float64 `json:"achieved"`
	PaperAchieved  float64 `json:"paperAchieved"`
	Estimated      float64 `json:"estimated"`
	PaperEstimated float64 `json:"paperEstimated"`
	Error          float64 `json:"error"`
	Rank           int     `json:"rank"`
	BaseCycles     int64   `json:"baseCycles"`
	OptCycles      int64   `json:"optCycles"`
}

func newTable3JSON(ro kernels.RunOptions, rows []*kernels.Benchmark, outs []*kernels.Outcome, sum table3Summary) table3JSON {
	doc := table3JSON{
		Arch: arch.KeyOf(ro.GPU), Model: ro.GPU.Name, Seed: ro.Seed,
		GeomeanAchieved: sum.achieved, GeomeanEstimated: sum.estimated, MeanError: sum.meanErr,
	}
	for i, b := range rows {
		out := outs[i]
		doc.Rows = append(doc.Rows, table3RowJSON{
			App: b.App, Kernel: b.Kernel, Optimization: b.Optimization,
			Achieved: out.Achieved, PaperAchieved: b.PaperAchieved,
			Estimated: out.Estimated, PaperEstimated: b.PaperEstimated,
			Error: out.Error, Rank: out.Rank,
			BaseCycles: out.BaseCycles, OptCycles: out.OptCycles,
		})
	}
	return doc
}

func writeTable3JSON(path string, ro kernels.RunOptions, rows []*kernels.Benchmark, outs []*kernels.Outcome, sum table3Summary) error {
	data, err := json.MarshalIndent(newTable3JSON(ro, rows, outs, sum), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
