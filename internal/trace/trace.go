// Package trace collects and analyzes per-operation records from the
// simulated machine: latency distributions by source class (the raw
// material of capability models) and CSV export for external tooling.
// Install a Collector with machine.SetTracer.
package trace

import (
	"fmt"
	"io"
	"sort"

	"knlcap/internal/machine"
	"knlcap/internal/stats"
)

// Collector buffers every operation record it is handed.
type Collector struct {
	records []machine.OpRecord
}

var _ machine.Tracer = (*Collector)(nil)

// NewCollector builds an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Record implements machine.Tracer.
func (c *Collector) Record(r machine.OpRecord) { c.records = append(c.records, r) }

// Len returns the number of buffered records.
func (c *Collector) Len() int { return len(c.records) }

// Records returns the buffered records (shared slice; do not mutate).
func (c *Collector) Records() []machine.OpRecord { return c.records }

// BySource groups load records by where the data came from.
func BySource(r machine.OpRecord) string {
	if r.Kind != machine.OpLoad {
		return r.Kind.String()
	}
	return "load/" + r.Source
}

// GroupSummary is the latency distribution of one bucket.
type GroupSummary struct {
	Key     string
	Count   int
	Summary stats.Summary
}

// Summaries reduces the buffered records into per-bucket latency
// distributions, sorted by key.
func (c *Collector) Summaries(key func(machine.OpRecord) string) []GroupSummary {
	buckets := map[string][]float64{}
	for _, r := range c.records {
		k := key(r)
		buckets[k] = append(buckets[k], r.Latency())
	}
	keys := make([]string, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]GroupSummary, 0, len(keys))
	for _, k := range keys {
		out = append(out, GroupSummary{
			Key:     k,
			Count:   len(buckets[k]),
			Summary: stats.Summarize(buckets[k]),
		})
	}
	return out
}

// WriteCSV dumps the records for external analysis.
func (c *Collector) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "start_ns,end_ns,core,kind,source,line"); err != nil {
		return err
	}
	for _, r := range c.records {
		if _, err := fmt.Fprintf(w, "%.3f,%.3f,%d,%s,%s,%d\n",
			r.Start, r.End, r.Core, r.Kind, r.Source, r.Line); err != nil {
			return err
		}
	}
	return nil
}
