package exp

import (
	"knlcap/internal/knl"
	"knlcap/internal/machine"
)

// MachinePool recycles machines across the points of a sweep. Building a
// machine allocates about 300 small objects (tag-array headers, slabs of
// per-tile state and resources, channel ports; tag storage waits for the
// first install into each 64-set block), and a point's run then allocates
// the tag blocks it touches; pooled, both are paid once per worker rather
// than once per point. Get hands out a recycled machine via Machine.Reset —
// whose contract guarantees digest-identity with a fresh construction — so
// pooled sweeps produce bit-identical results to unpooled ones.
//
// A pool is NOT safe for concurrent use; Run gives each worker its own,
// which also keeps every machine on the worker that built it. A nil pool
// is valid and recycles nothing: Get builds a fresh machine and Put drops
// it, so a point's code runs the same inside a sweep and outside one.
type MachinePool struct {
	free []*machine.Machine
}

// Get returns a machine for cfg, reset to the state
// machine.NewSeededWithParams(cfg, p, seed) constructs — recycled when the
// pool holds one of a matching configuration, freshly built otherwise.
func (mp *MachinePool) Get(cfg knl.Config, p machine.Params, seed uint64) *machine.Machine {
	if mp == nil {
		return machine.NewSeededWithParams(cfg, p, seed)
	}
	for i := len(mp.free) - 1; i >= 0; i-- {
		m := mp.free[i]
		if m.Cfg == cfg {
			mp.free = append(mp.free[:i], mp.free[i+1:]...)
			m.Reset(p, seed)
			return m
		}
	}
	return machine.NewSeededWithParams(cfg, p, seed)
}

// Put returns a machine to the pool once its point is done with it. The
// caller must not use the machine afterwards.
func (mp *MachinePool) Put(m *machine.Machine) {
	if mp == nil || m == nil {
		return
	}
	mp.free = append(mp.free, m)
}
