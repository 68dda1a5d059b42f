// Package memory models the two KNL memory technologies at channel
// granularity: six DDR4-2133 channels behind two IMCs and eight MCDRAM
// (Hybrid-Memory-Cube style) channels behind eight EDCs.
//
// Each channel exposes three serializing ports: a command pipeline shared by
// both directions, a read data port and a write data port. MCDRAM's
// full-duplex links show up as a wide command pipeline relative to the data
// ports; DDR's poor streaming-store behaviour shows up as a slow write port
// (the paper measures 36 GB/s writes vs 77 GB/s reads on DDR, and
// 171 GB/s vs 314 GB/s on MCDRAM). Aggregate bandwidth ceilings, the
// copy-is-write-bound effect and the triad sweet spot all emerge from
// these three service rates; nothing in this package knows which benchmark
// is running.
package memory

import (
	"fmt"

	"knlcap/internal/knl"
	"knlcap/internal/sim"
)

// DeviceParams are the per-channel timing parameters of one technology.
type DeviceParams struct {
	Kind knl.MemKind
	// DeviceLatencyNs is the unloaded access latency inside the device
	// (row activation, CAS, controller queue) excluding mesh traversal.
	DeviceLatencyNs float64
	// ReadSvcNs / WriteSvcNs / CmdSvcNs are per-line occupancies of the
	// three ports; their reciprocals set the channel bandwidth ceilings.
	ReadSvcNs  float64
	WriteSvcNs float64
	CmdSvcNs   float64
}

// PeakReadGBs returns the aggregate read ceiling of n channels in GB/s.
func (d DeviceParams) PeakReadGBs(n int) float64 {
	return float64(knl.LineSize) / d.ReadSvcNs * float64(n)
}

// PeakWriteGBs returns the aggregate write ceiling of n channels in GB/s.
func (d DeviceParams) PeakWriteGBs(n int) float64 {
	return float64(knl.LineSize) / d.WriteSvcNs * float64(n)
}

// DDRParams models one DDR4-2133 channel. Ceilings over six channels:
// reads 77 GB/s, writes 36 GB/s, total command throughput 89 GB/s —
// the medians of Table II (flat mode, transparent cluster modes).
func DDRParams() DeviceParams {
	return DeviceParams{
		Kind:            knl.DDR,
		DeviceLatencyNs: 56,
		ReadSvcNs:       4.99,
		WriteSvcNs:      10.64,
		CmdSvcNs:        4.30,
	}
}

// MCDRAMParams models one MCDRAM channel (EDC). Ceilings over eight
// channels: reads 314 GB/s, writes 171 GB/s, command 410 GB/s, which
// reproduces Table II: read 314, write 171, copy (write-bound) 342,
// triad (command-bound) ~410, and the paper's "higher-latency but
// higher-bandwidth" characteristic via the larger device latency.
func MCDRAMParams() DeviceParams {
	return DeviceParams{
		Kind:            knl.MCDRAM,
		DeviceLatencyNs: 89,
		ReadSvcNs:       1.63,
		WriteSvcNs:      2.99,
		CmdSvcNs:        1.25,
	}
}

// ModeEfficiency returns the calibrated affinity-efficiency multiplier
// applied to all service times of a technology under a cluster mode.
// MCDRAM benefits from locality (SNC4 fastest, A2A slowest); DDR pays a
// small penalty in SNC modes because the paper's benchmarks use no
// NUMA-aware allocation, concentrating each thread's traffic on the 1-3
// channels of its cluster (Table II: DDR read 71 GB/s in SNC vs 77
// transparent; MCDRAM copy 342 SNC4 vs 306 A2A).
func ModeEfficiency(kind knl.MemKind, mode knl.ClusterMode) float64 {
	if kind == knl.DDR {
		switch mode {
		case knl.SNC4, knl.SNC2:
			return 1.085
		default:
			return 1.0
		}
	}
	switch mode {
	case knl.SNC4:
		return 1.0
	case knl.SNC2, knl.Quadrant:
		return 1.027
	case knl.Hemisphere:
		return 1.086
	case knl.A2A:
		return 1.118
	default:
		return 1.0
	}
}

// Channel is one memory channel with its three serializing ports.
type Channel struct {
	//knl:nostate immutable wiring: which memory kind the channel serves
	Kind knl.MemKind
	//knl:nostate immutable channel index
	Index int

	//knl:nostate immutable device timing parameters
	params DeviceParams
	//knl:nostate port resource: quiescent at digest/Reset points, traffic is folded via the line counters
	cmd *sim.Resource
	//knl:nostate port resource: quiescent at digest/Reset points, traffic is folded via the line counters
	read *sim.Resource
	//knl:nostate port resource: quiescent at digest/Reset points, traffic is folded via the line counters
	write *sim.Resource

	linesRead    uint64
	linesWritten uint64
}

// chanPorts holds the interned port names of one channel; the table below
// covers every channel of the standard 6-DDR + 8-MCDRAM topology, so
// machine construction formats no strings (non-standard indices, used only
// by tests, fall back to fmt).
type chanPorts struct{ cmd, rd, wr string }

var chanNames = func() [2][]chanPorts {
	var t [2][]chanPorts
	for _, kind := range []knl.MemKind{knl.DDR, knl.MCDRAM} {
		n := knl.DDRChannels
		if kind == knl.MCDRAM {
			n = knl.NumEDC
		}
		ports := make([]chanPorts, n)
		for i := range ports {
			ports[i] = mkChanPorts(kind, i)
		}
		t[kind] = ports
	}
	return t
}()

func mkChanPorts(kind knl.MemKind, index int) chanPorts {
	tag := fmt.Sprintf("%v[%d]", kind, index)
	return chanPorts{cmd: tag + ".cmd", rd: tag + ".rd", wr: tag + ".wr"}
}

// NewChannel builds a channel whose service times are the technology
// parameters scaled by the mode-efficiency factor.
func NewChannel(env *sim.Env, p DeviceParams, index int, eff float64) *Channel {
	if eff <= 0 {
		panic("memory: non-positive efficiency")
	}
	scaled := p
	scaled.ReadSvcNs *= eff
	scaled.WriteSvcNs *= eff
	scaled.CmdSvcNs *= eff
	var ports chanPorts
	if int(p.Kind) < len(chanNames) && index < len(chanNames[p.Kind]) {
		ports = chanNames[p.Kind][index]
	} else {
		ports = mkChanPorts(p.Kind, index)
	}
	return &Channel{
		Kind:   p.Kind,
		Index:  index,
		params: scaled,
		cmd:    sim.NewResource(env, ports.cmd, 1),
		read:   sim.NewResource(env, ports.rd, 1),
		write:  sim.NewResource(env, ports.wr, 1),
	}
}

// Params returns the (efficiency-scaled) device parameters.
func (c *Channel) Params() DeviceParams { return c.params }

// DeviceLatencyNs returns the unloaded in-device latency.
func (c *Channel) DeviceLatencyNs() float64 { return c.params.DeviceLatencyNs }

// ServeReadCtx occupies the command and read ports for n lines: the step
// process behind x queues the two port occupancies as micro-ops. The
// caller pays DeviceLatencyNs separately (it pipelines with other
// requests; port time does not). The line counter moves when the serve is
// issued — counters feed post-run reporting and the digest at quiescent
// points only, so issue time vs completion time is unobservable.
func (c *Channel) ServeReadCtx(x *sim.StepCtx, n int) {
	if n <= 0 {
		return
	}
	c.linesRead += uint64(n)
	x.Use(c.cmd, c.params.CmdSvcNs*float64(n))
	x.Use(c.read, c.params.ReadSvcNs*float64(n))
}

// ServeWriteCtx occupies the command and write ports for n lines (see
// ServeReadCtx).
func (c *Channel) ServeWriteCtx(x *sim.StepCtx, n int) {
	if n <= 0 {
		return
	}
	c.linesWritten += uint64(n)
	x.Use(c.cmd, c.params.CmdSvcNs*float64(n))
	x.Use(c.write, c.params.WriteSvcNs*float64(n))
}

// LinesRead returns the cumulative number of lines read from the channel.
func (c *Channel) LinesRead() uint64 { return c.linesRead }

// LinesWritten returns the cumulative number of lines written.
func (c *Channel) LinesWritten() uint64 { return c.linesWritten }

// Reset zeroes the channel's traffic counters and port statistics
// (machine pooling).
func (c *Channel) Reset() {
	c.linesRead, c.linesWritten = 0, 0
	c.cmd.Reset()
	c.read.Reset()
	c.write.Reset()
}

// QueueLen returns the instantaneous total queue depth across ports
// (a congestion observable for reports).
func (c *Channel) QueueLen() int {
	return c.cmd.QueueLen() + c.read.QueueLen() + c.write.QueueLen()
}

// System is the full memory system: all channels of both kinds.
type System struct {
	DDR    []*Channel
	MCDRAM []*Channel
}

// NewSystem builds the 6 DDR + 8 MCDRAM channels for a cluster mode.
func NewSystem(env *sim.Env, mode knl.ClusterMode) *System {
	s := &System{}
	dp, mp := DDRParams(), MCDRAMParams()
	de, me := ModeEfficiency(knl.DDR, mode), ModeEfficiency(knl.MCDRAM, mode)
	for i := 0; i < knl.DDRChannels; i++ {
		s.DDR = append(s.DDR, NewChannel(env, dp, i, de))
	}
	for i := 0; i < knl.NumEDC; i++ {
		s.MCDRAM = append(s.MCDRAM, NewChannel(env, mp, i, me))
	}
	return s
}

// Reset zeroes every channel's counters and port statistics.
func (s *System) Reset() {
	for _, ch := range s.DDR {
		ch.Reset()
	}
	for _, ch := range s.MCDRAM {
		ch.Reset()
	}
}

// Channel returns the channel of the given kind and index.
func (s *System) Channel(kind knl.MemKind, idx int) *Channel {
	if kind == knl.DDR {
		return s.DDR[idx]
	}
	return s.MCDRAM[idx]
}
