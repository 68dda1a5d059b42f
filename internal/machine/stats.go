package machine

import (
	"fmt"
	"sort"

	"knlcap/internal/knl"
)

// ResourceStat is the observed load on one serializing hardware structure.
type ResourceStat struct {
	Name        string
	Acquires    uint64
	MaxQueue    int
	Utilization float64
}

// StatsReport summarizes the machine's contended structures after a run:
// CHA directories, tile L2 ports, core issue ports, memory channels and the
// mesh rings — sorted by utilization, busiest first. It is the
// observability companion to the capability model: the busiest resource is
// the capability a workload is consuming.
func (m *Machine) StatsReport() []ResourceStat {
	var out []ResourceStat
	add := func(name string, acquires uint64, maxQ int, util float64) {
		if acquires == 0 {
			return
		}
		out = append(out, ResourceStat{Name: name, Acquires: acquires,
			MaxQueue: maxQ, Utilization: util})
	}
	for t, ts := range m.tiles {
		add(fmt.Sprintf("cha[%d]", t), ts.cha.Acquires(), ts.cha.MaxQueue(), ts.cha.Utilization())
		add(fmt.Sprintf("l2port[%d]", t), ts.port.Acquires(), ts.port.MaxQueue(), ts.port.Utilization())
	}
	for c, cs := range m.cores {
		add(fmt.Sprintf("issue[%d]", c), cs.issue.Acquires(), cs.issue.MaxQueue(), cs.issue.Utilization())
	}
	for _, ch := range m.Mem.DDR {
		add(fmt.Sprintf("ddr[%d]", ch.Index), ch.LinesRead()+ch.LinesWritten(), ch.QueueLen(), 0)
	}
	for _, ch := range m.Mem.MCDRAM {
		add(fmt.Sprintf("edc[%d]", ch.Index), ch.LinesRead()+ch.LinesWritten(), ch.QueueLen(), 0)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Utilization != out[j].Utilization {
			return out[i].Utilization > out[j].Utilization
		}
		return out[i].Acquires > out[j].Acquires
	})
	return out
}

// ChannelTraffic sums the lines read and written per technology.
func (m *Machine) ChannelTraffic() map[knl.MemKind][2]uint64 {
	out := map[knl.MemKind][2]uint64{}
	var dr, dw, mr, mw uint64
	for _, ch := range m.Mem.DDR {
		dr += ch.LinesRead()
		dw += ch.LinesWritten()
	}
	for _, ch := range m.Mem.MCDRAM {
		mr += ch.LinesRead()
		mw += ch.LinesWritten()
	}
	out[knl.DDR] = [2]uint64{dr, dw}
	out[knl.MCDRAM] = [2]uint64{mr, mw}
	return out
}

// MeshUtilization returns the busiest ring direction's utilization.
func (m *Machine) MeshUtilization() float64 {
	return m.Fabric.Utilization()
}
