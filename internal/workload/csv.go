package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// csvHeader is the mandatory column layout used by ExportCSV / ImportCSV.
// An optional trailing csvSLOColumn carries service classes; traces written
// before SLO classes existed remain readable as all-best-effort.
var csvHeader = []string{"id", "arrival", "cpu", "mem_gib", "duration", "source"}

const csvSLOColumn = "slo"

// validateCSVHeader accepts the 6-column legacy layout or the 7-column
// layout with the trailing SLO column.
func validateCSVHeader(header []string) error {
	if len(header) != len(csvHeader) && len(header) != len(csvHeader)+1 {
		return fmt.Errorf("workload: CSV has %d columns, want %d (%v, optionally followed by %q)",
			len(header), len(csvHeader), csvHeader, csvSLOColumn)
	}
	for i, h := range csvHeader {
		if header[i] != h {
			return fmt.Errorf("workload: CSV column %d is %q, want %q", i, header[i], h)
		}
	}
	if len(header) > len(csvHeader) && header[len(csvHeader)] != csvSLOColumn {
		return fmt.Errorf("workload: CSV column %d is %q, want %q", len(csvHeader), header[len(csvHeader)], csvSLOColumn)
	}
	return nil
}

// ExportCSV writes tasks in a simple trace format so sampled workloads can
// be inspected, plotted, or replayed by external tools. The SLO column is
// emitted only when some task carries a non-default class, so traces of
// plain workloads keep the legacy 6-column layout byte-for-byte.
func ExportCSV(w io.Writer, tasks []Task) error {
	withSLO := false
	for _, t := range tasks {
		if t.SLO != SLOBestEffort {
			withSLO = true
			break
		}
	}
	header := csvHeader
	if withSLO {
		header = append(append([]string{}, csvHeader...), csvSLOColumn)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, t := range tasks {
		rec := []string{
			strconv.Itoa(t.ID),
			strconv.Itoa(t.Arrival),
			strconv.Itoa(t.CPU),
			strconv.FormatFloat(t.Mem, 'g', -1, 64),
			strconv.Itoa(t.Duration),
			strconv.Itoa(int(t.Source)),
		}
		if withSLO {
			rec = append(rec, strconv.Itoa(int(t.SLO)))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ImportCSV reads a trace written by ExportCSV (or hand-authored with the
// same header) by draining a CSVStream, so the batch and streaming readers
// accept and reject exactly the same traces. Real cluster traces can be
// converted to this format to drive the simulator with non-synthetic
// workloads.
func ImportCSV(r io.Reader) ([]Task, error) {
	s, err := NewCSVStream(r)
	if err != nil {
		return nil, err
	}
	tasks := drain(s.Next, 0)
	if s.Err() != nil {
		return nil, s.Err()
	}
	return tasks, nil
}

func parseCSVTask(rec []string) (Task, error) {
	var t Task
	var err error
	if t.ID, err = strconv.Atoi(rec[0]); err != nil {
		return t, fmt.Errorf("id: %w", err)
	}
	if t.Arrival, err = strconv.Atoi(rec[1]); err != nil {
		return t, fmt.Errorf("arrival: %w", err)
	}
	if t.CPU, err = strconv.Atoi(rec[2]); err != nil {
		return t, fmt.Errorf("cpu: %w", err)
	}
	if t.Mem, err = strconv.ParseFloat(rec[3], 64); err != nil {
		return t, fmt.Errorf("mem: %w", err)
	}
	if t.Duration, err = strconv.Atoi(rec[4]); err != nil {
		return t, fmt.Errorf("duration: %w", err)
	}
	src, err := strconv.Atoi(rec[5])
	if err != nil {
		return t, fmt.Errorf("source: %w", err)
	}
	t.Source = DatasetID(src)
	if len(rec) > len(csvHeader) {
		slo, err := strconv.Atoi(rec[len(csvHeader)])
		if err != nil {
			return t, fmt.Errorf("slo: %w", err)
		}
		if slo < 0 || slo >= NumSLOClasses {
			return t, fmt.Errorf("unknown slo class %d", slo)
		}
		t.SLO = SLOClass(slo)
	}
	switch {
	case t.Arrival < 0:
		return t, fmt.Errorf("negative arrival %d", t.Arrival)
	case t.CPU < 1:
		return t, fmt.Errorf("non-positive cpu %d", t.CPU)
	case !(t.Mem > 0) || math.IsInf(t.Mem, 1):
		// The negated comparison also catches NaN, which a plain
		// t.Mem <= 0 would let through.
		return t, fmt.Errorf("non-positive or non-finite mem %v", t.Mem)
	case t.Duration < 1:
		return t, fmt.Errorf("non-positive duration %d", t.Duration)
	}
	return t, nil
}
