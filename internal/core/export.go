package core

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/stats"
)

// exportedDistribution is the JSON shape of a Distribution: self-describing
// and stable, for plotting pipelines.
type exportedDistribution struct {
	Config string            `json:"config"`
	Rungs  []string          `json:"rungs"`
	SSDs   [][]float64       `json:"ssds_ns"`
	Mean   []float64         `json:"mean_ns"`
	Std    []float64         `json:"std_ns"`
	Min    []float64         `json:"min_ns"`
	Max    []float64         `json:"max_ns"`
	Extra  map[string]string `json:"extra,omitempty"`
}

func exportOf(d Distribution) exportedDistribution {
	e := exportedDistribution{Config: d.Config, Rungs: stats.LadderLabels}
	for _, l := range d.Ladders {
		row := make([]float64, stats.NumRungs)
		for r := 0; r < stats.NumRungs; r++ {
			row[r] = l.Rung(r)
		}
		e.SSDs = append(e.SSDs, row)
	}
	for r := 0; r < stats.NumRungs; r++ {
		e.Mean = append(e.Mean, d.Summary.Mean[r])
		e.Std = append(e.Std, d.Summary.Std[r])
		e.Min = append(e.Min, d.Summary.Min[r])
		e.Max = append(e.Max, d.Summary.Max[r])
	}
	return e
}

// WriteDistributionJSON emits one Distribution as indented JSON.
func WriteDistributionJSON(w io.Writer, d Distribution) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(exportOf(d))
}

// WriteDistributionsJSON emits several Distributions (a Fig 12/14-style
// comparison) as one JSON array.
func WriteDistributionsJSON(w io.Writer, ds []Distribution) error {
	out := make([]exportedDistribution, len(ds))
	for i, d := range ds {
		out[i] = exportOf(d)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteDistributionCSV emits a Distribution as CSV: one row per SSD, one
// column per ladder rung (nanoseconds), matching how the paper's figures
// plot one line per SSD.
func WriteDistributionCSV(w io.Writer, d Distribution) error {
	cw := csv.NewWriter(w)
	header := append([]string{"ssd"}, stats.LadderLabels...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, l := range d.Ladders {
		row := []string{strconv.Itoa(i)}
		for r := 0; r < stats.NumRungs; r++ {
			row = append(row, strconv.FormatFloat(l.Rung(r), 'f', 0, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig10CSV emits the scatter samples as CSV rows of
// (ssd, completion_ns, latency_ns) — the raw material of the paper's
// Fig 10 plot.
func WriteFig10CSV(w io.Writer, r Fig10Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"ssd", "at_ns", "latency_ns"}); err != nil {
		return err
	}
	for ssd, log := range r.Logs {
		for _, s := range log {
			row := []string{
				strconv.Itoa(ssd),
				strconv.FormatInt(s.At, 10),
				strconv.FormatInt(s.Latency, 10),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadDistributionJSON parses what WriteDistributionJSON wrote — round-trip
// support for external tooling and tests.
func ReadDistributionJSON(rd io.Reader) (Distribution, error) {
	var e exportedDistribution
	if err := json.NewDecoder(rd).Decode(&e); err != nil {
		return Distribution{}, err
	}
	if len(e.Mean) != stats.NumRungs {
		return Distribution{}, fmt.Errorf("core: %d rungs in JSON, want %d", len(e.Mean), stats.NumRungs)
	}
	d := Distribution{Config: e.Config}
	for _, row := range e.SSDs {
		if len(row) != stats.NumRungs {
			return Distribution{}, fmt.Errorf("core: ssd row has %d rungs", len(row))
		}
		var l stats.Ladder
		l.Avg = row[0]
		for i := 0; i < 5; i++ {
			l.P[i] = int64(row[i+1])
		}
		l.Max = int64(row[6])
		d.Ladders = append(d.Ladders, l)
	}
	d.Summary = stats.Summarize(d.Ladders)
	return d, nil
}
