package main

import (
	"encoding/json"
	"os"

	"gpa/internal/kernels"
)

// table3JSON is the -json serialization of a Table 3 sweep.
type table3JSON struct {
	Seed uint64          `json:"seed"`
	Rows []table3RowJSON `json:"rows"`
	// Geomeans over all rows.
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

func writeTable3JSON(path string, seed uint64, rows []*kernels.Benchmark, outs []*kernels.Outcome) error {
	doc := table3JSON{Seed: seed}
	var achieved, estimated []float64
	var errSum float64
	for i, b := range rows {
		out := outs[i]
		doc.Rows = append(doc.Rows, table3RowJSON{
			App: b.App, Kernel: b.Kernel, Optimization: b.Optimization,
			Achieved: out.Achieved, PaperAchieved: b.PaperAchieved,
			Estimated: out.Estimated, PaperEstimated: b.PaperEstimated,
			Error: out.Error, Rank: out.Rank,
			BaseCycles: out.BaseCycles, OptCycles: out.OptCycles,
		})
		achieved = append(achieved, out.Achieved)
		estimated = append(estimated, out.Estimated)
		errSum += out.Error
	}
	doc.GeomeanAchieved = kernels.GeoMean(achieved)
	doc.GeomeanEstimated = kernels.GeoMean(estimated)
	if len(rows) > 0 {
		doc.MeanError = errSum / float64(len(rows))
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
