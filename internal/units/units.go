// Package units gives the capability model's physical quantities distinct
// Go types, so a nanoseconds-vs-cycles or GB-vs-GiB mix-up is a compile
// error (or a unitcheck finding) instead of a silently wrong Figure 4-10
// curve. The paper's model is pure arithmetic over dimensioned values —
// Table I/II latencies in ns, bandwidths in GB/s, line counts — and this
// package is the single place where dimensions may be
// combined or stripped.
//
// Conventions:
//
//   - Nanos is wall time in nanoseconds.
//   - GBps is decimal gigabytes per second. Because 1 GB/s moves exactly
//     one byte per nanosecond, Bytes/GBps division yields Nanos directly
//     with no hidden scale factor (the conversion the paper's equations
//     rely on).
//   - Bytes and Lines are integer amounts of data; they convert through an
//     explicit line size (the 64-byte KNL cache line lives in internal/knl,
//     not here).
//
// The blessed cross-unit operations are the named converters below. Raw
// views (Float, Int) exist for the boundaries that genuinely need bare
// numbers — persistence, printing, generic statistics — and are the
// greppable escape hatch the unitcheck analyzer recognizes. Everything
// else (arithmetic mixing two units, converting a unit value with a plain
// float64(...) conversion, scaling by bare literals) is reported by the
// unitcheck analyzer in internal/analysis; see DESIGN.md §7 for the
// contract and for how to bless a new converter.
package units

// Nanos is a duration in nanoseconds — the unit of every latency
// capability (RL, RR, RI, ...) and every model prediction.
type Nanos float64

// Bytes is an amount of data in bytes.
type Bytes int64

// Lines is an amount of data in whole cache lines.
type Lines int64

// GBps is a bandwidth in decimal gigabytes per second (1 GB/s = 1 B/ns).
type GBps float64

// Float returns the raw nanosecond count for printing, persistence and
// generic statistics. It is the blessed unit-stripping escape; a plain
// float64(...) conversion of a Nanos value is a unitcheck finding.
func (n Nanos) Float() float64 { return float64(n) }

// Float returns the raw GB/s value.
func (b GBps) Float() float64 { return float64(b) }

// Int returns the raw line count.
func (l Lines) Int() int64 { return int64(l) }

// Scale multiplies the duration by a dimensionless factor (thread counts,
// per-level repetition, the min-max poll factor). Scaling preserves the
// dimension, so it is the one arithmetic the analyzer lets literals into.
func (n Nanos) Scale(k float64) Nanos { return Nanos(float64(n) * k) }

// Scale multiplies the bandwidth by a dimensionless factor.
func (b GBps) Scale(k float64) GBps { return GBps(float64(b) * k) }

// Scale multiplies the byte count by a dimensionless factor, truncating
// toward zero.
func (b Bytes) Scale(k float64) Bytes { return Bytes(float64(b) * k) }

// Div divides the line count by a dimensionless integer (exact for the
// power-of-two capacity splits the model uses).
func (l Lines) Div(k int64) Lines { return l / Lines(k) }

// TransferNanos is the time to move b bytes at bandwidth bw.
func (b Bytes) TransferNanos(bw GBps) Nanos {
	return Nanos(float64(b) / float64(bw))
}

// Lines converts a byte count to whole cache lines of the given size,
// rounding up (a partial line still occupies a line).
func (b Bytes) Lines(line Bytes) Lines {
	if line <= 0 {
		return 0
	}
	return Lines((b + line - 1) / line)
}
