package memory

import (
	"math"
	"testing"

	"knlcap/internal/knl"
	"knlcap/internal/sim"
)

func TestPeakCeilingsMatchPaper(t *testing.T) {
	ddr := DDRParams()
	if got := ddr.PeakReadGBs(knl.DDRChannels); math.Abs(got-77) > 2 {
		t.Errorf("DDR read ceiling = %.1f GB/s, want ~77", got)
	}
	if got := ddr.PeakWriteGBs(knl.DDRChannels); math.Abs(got-36) > 2 {
		t.Errorf("DDR write ceiling = %.1f GB/s, want ~36", got)
	}
	mc := MCDRAMParams()
	if got := mc.PeakReadGBs(knl.NumEDC); math.Abs(got-314) > 10 {
		t.Errorf("MCDRAM read ceiling = %.1f GB/s, want ~314", got)
	}
	if got := mc.PeakWriteGBs(knl.NumEDC); math.Abs(got-171) > 8 {
		t.Errorf("MCDRAM write ceiling = %.1f GB/s, want ~171", got)
	}
	if mc.DeviceLatencyNs <= ddr.DeviceLatencyNs {
		t.Error("MCDRAM must have higher device latency than DDR (paper Table II)")
	}
}

func TestModeEfficiencyOrdering(t *testing.T) {
	// MCDRAM: SNC4 best, A2A worst.
	prev := 0.0
	for _, m := range []knl.ClusterMode{knl.SNC4, knl.Quadrant, knl.Hemisphere, knl.A2A} {
		e := ModeEfficiency(knl.MCDRAM, m)
		if e < prev {
			t.Errorf("MCDRAM efficiency not monotone at %v", m)
		}
		prev = e
	}
	// DDR: SNC pays, transparent modes don't.
	if ModeEfficiency(knl.DDR, knl.SNC4) <= ModeEfficiency(knl.DDR, knl.Quadrant) {
		t.Error("DDR SNC4 should be less efficient than Quadrant")
	}
	if ModeEfficiency(knl.DDR, knl.A2A) != 1.0 {
		t.Error("DDR A2A should be baseline 1.0")
	}
}

func TestNewChannelScalesServices(t *testing.T) {
	env := sim.NewEnv()
	c := NewChannel(env, DDRParams(), 0, 2.0)
	if got, want := c.Params().ReadSvcNs, DDRParams().ReadSvcNs*2; got != want {
		t.Errorf("scaled read svc = %v, want %v", got, want)
	}
	if c.DeviceLatencyNs() != DDRParams().DeviceLatencyNs {
		t.Error("efficiency must not scale device latency")
	}
}

func TestNewChannelBadEffPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero efficiency did not panic")
		}
	}()
	NewChannel(sim.NewEnv(), DDRParams(), 0, 0)
}

// Single reader: read throughput limited by the read port.
func TestChannelReadThroughput(t *testing.T) {
	env := sim.NewEnv()
	c := NewChannel(env, DDRParams(), 0, 1.0)
	const lines = 1000
	env.GoSteps("reader", &stepLoop{n: 1, body: func(x *sim.StepCtx) { c.ServeReadCtx(x, lines) }})
	end, err := env.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := lines * (DDRParams().CmdSvcNs + DDRParams().ReadSvcNs)
	if math.Abs(end-want) > 1e-6 {
		t.Errorf("serve time = %v, want %v", end, want)
	}
	if c.LinesRead() != lines {
		t.Errorf("linesRead = %d, want %d", c.LinesRead(), lines)
	}
}

// Concurrent readers and writers overlap on the data ports but serialize on
// the command pipeline: total time is bounded by the busiest port, not the
// sum of all traffic.
func TestChannelFullDuplexOverlap(t *testing.T) {
	env := sim.NewEnv()
	c := NewChannel(env, MCDRAMParams(), 0, 1.0)
	const lines = 2000
	env.GoSteps("reader", &stepLoop{n: lines, body: func(x *sim.StepCtx) { c.ServeReadCtx(x, 1) }})
	env.GoSteps("writer", &stepLoop{n: lines, body: func(x *sim.StepCtx) { c.ServeWriteCtx(x, 1) }})
	end, err := env.Run()
	if err != nil {
		t.Fatal(err)
	}
	p := MCDRAMParams()
	serialized := lines * (p.CmdSvcNs + p.ReadSvcNs + p.CmdSvcNs + p.WriteSvcNs)
	// Must beat full serialization by a clear margin (ports overlap).
	if end >= serialized*0.95 {
		t.Errorf("no overlap: end = %v, serialized = %v", end, serialized)
	}
	// But cannot beat the command pipeline (shared by both directions).
	cmdBound := 2 * lines * p.CmdSvcNs
	if end < cmdBound-1e-6 {
		t.Errorf("end %v beat command-pipeline bound %v", end, cmdBound)
	}
}

// Copy traffic (equal reads+writes) must be write-bound on DDR: the
// emergent effect behind "Copy NT 70 GB/s" vs "Read 77 GB/s" in Table II.
func TestDDRCopyIsWriteBound(t *testing.T) {
	env := sim.NewEnv()
	c := NewChannel(env, DDRParams(), 0, 1.0)
	// Several concurrent requesters per direction keep the ports pipelined,
	// as the machine's MSHR-chunked streams do.
	const workers, per = 4, 250
	const lines = workers * per
	for w := 0; w < workers; w++ {
		env.GoSteps("rd", &stepLoop{n: per, body: func(x *sim.StepCtx) { c.ServeReadCtx(x, 1) }})
		env.GoSteps("wr", &stepLoop{n: per, body: func(x *sim.StepCtx) { c.ServeWriteCtx(x, 1) }})
	}
	end, err := env.Run()
	if err != nil {
		t.Fatal(err)
	}
	p := DDRParams()
	writeBound := lines * p.WriteSvcNs
	if end < writeBound {
		t.Errorf("end %v below write-port bound %v", end, writeBound)
	}
	// Counted copy bandwidth = 2*lines*64B / end, should be ~72 GB/s * ch/6.
	counted := 2 * lines * 64.0 / end
	if counted < 10.5 || counted > 13.5 {
		t.Errorf("per-channel counted copy BW = %.2f GB/s, want ~12", counted)
	}
}

func TestServeZeroLinesIsNoop(t *testing.T) {
	env := sim.NewEnv()
	c := NewChannel(env, DDRParams(), 0, 1.0)
	env.GoSteps("t", &stepLoop{n: 1, body: func(x *sim.StepCtx) {
		c.ServeReadCtx(x, 0)
		c.ServeWriteCtx(x, -3)
	}})
	end, err := env.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 0 || c.LinesRead() != 0 || c.LinesWritten() != 0 {
		t.Errorf("zero-line serve advanced time (%v) or counters", end)
	}
}

func TestNewSystemShape(t *testing.T) {
	env := sim.NewEnv()
	s := NewSystem(env, knl.Quadrant)
	if len(s.DDR) != knl.DDRChannels || len(s.MCDRAM) != knl.NumEDC {
		t.Fatalf("system has %d DDR / %d MCDRAM channels", len(s.DDR), len(s.MCDRAM))
	}
	if s.Channel(knl.DDR, 3) != s.DDR[3] || s.Channel(knl.MCDRAM, 7) != s.MCDRAM[7] {
		t.Error("Channel accessor mismatch")
	}
	// Mode efficiency applied.
	if s.MCDRAM[0].Params().ReadSvcNs <= MCDRAMParams().ReadSvcNs {
		t.Error("Quadrant MCDRAM should be scaled above baseline SNC4 service")
	}
}

// stepLoop is a step process body that runs body as n successive
// junctures and then ends; a juncture that queues nothing falls through.
type stepLoop struct {
	n    int
	body func(x *sim.StepCtx)
}

func (s *stepLoop) Step(x *sim.StepCtx) {
	for s.n > 0 {
		s.n--
		s.body(x)
		if x.Blocked() {
			return
		}
	}
	x.End()
}
