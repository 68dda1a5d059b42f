package units

import (
	"math"
	"testing"
)

func close(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestNanosPerLine(t *testing.T) {
	// 1 GB/s is 1 byte/ns, so a 64-byte line takes 64 ns at 1 GB/s and
	// 64/371 ns at the MCDRAM peak of the paper.
	close(t, "64 B at 1 GB/s", Bytes(64).TransferNanos(GBps(1)).Float(), 64)
	close(t, "64 B at 371 GB/s", Bytes(64).TransferNanos(GBps(371)).Float(), 64.0/371)
}

func TestTransferAndBandwidth(t *testing.T) {
	b := Bytes(1 << 30)
	bw := GBps(80)
	n := b.TransferNanos(bw)
	close(t, "TransferNanos", n.Float(), float64(1<<30)/80)
}

func TestBytesLinesConversion(t *testing.T) {
	line := Bytes(64)
	if got := Bytes(4096).Lines(line); got != 64 {
		t.Errorf("4096 B = %d lines, want 64", got)
	}
	// Partial lines round up.
	if got := Bytes(65).Lines(line); got != 2 {
		t.Errorf("65 B = %d lines, want 2", got)
	}
	if got := Bytes(0).Lines(line); got != 0 {
		t.Errorf("0 B = %d lines, want 0", got)
	}
	// Degenerate line size must not divide by zero.
	if got := Bytes(100).Lines(0); got != 0 {
		t.Errorf("lines with zero line size = %d, want 0", got)
	}
}

func TestScaleAndDiv(t *testing.T) {
	close(t, "Nanos.Scale", Nanos(140).Scale(2).Float(), 280)
	close(t, "GBps.Scale", GBps(90).Scale(0.1).Float(), 9)
	if got := Lines(512).Div(2); got != 256 {
		t.Errorf("Lines.Div = %d, want 256", got)
	}
	if got := Bytes(100).Scale(0.25); got != 25 {
		t.Errorf("Bytes.Scale = %d, want 25", got)
	}
}

// TestScaleMatchesPlainArithmetic pins the bit-exactness contract the model
// refactor depends on: x.Scale(k) must be exactly x*k, so retyping the
// model could not move any golden figure output.
func TestScaleMatchesPlainArithmetic(t *testing.T) {
	vals := []float64{3.8, 34, 110, 140, 167, 200, 0.1, 1e9}
	ks := []float64{2, 0.5, 3.7, 64, 1.0 / 3}
	for _, v := range vals {
		for _, k := range ks {
			if Nanos(v).Scale(k).Float() != v*k {
				t.Fatalf("Nanos(%v).Scale(%v) = %v, want exactly %v", v, k, Nanos(v).Scale(k).Float(), v*k)
			}
		}
	}
	if Bytes(64).TransferNanos(GBps(371)).Float() != 64/371.0 {
		t.Fatal("TransferNanos is not the plain division")
	}
}
