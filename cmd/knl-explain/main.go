// Command knl-explain decomposes one memory access on the simulated KNL
// into its protocol components — the "why is this 119 ns" view that the
// capability model abstracts into R_L, R_R and R_I. It runs the access on
// the simulator and prints the structural walk with the configured timing
// parameters, plus the capability-model abstraction of the same access.
//
// Usage:
//
//	knl-explain -from 0 -owner 20 -state M          # cache-to-cache
//	knl-explain -from 0 -state I -kind mcdram       # memory access
//	knl-explain -from 0 -owner 1 -state E           # same-tile
//	knl-explain -cluster A2A -memmode cache -state I
package main

import (
	"fmt"
	"io"
	"os"

	"knlcap/internal/cache"
	"knlcap/internal/cli"
	"knlcap/internal/cluster"
	"knlcap/internal/core"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind an argument list and two writers; it
// returns the exit code (see internal/cli): 1 if the simulation fails.
func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("knl-explain", stderr, cli.Cluster|cli.MemMode)
	from := c.Int("from", 0, "requesting core (0-63)")
	owner := c.Int("owner", 20, "core whose cache holds the line (ignored for state I)")
	state := c.String("state", "M", "line state at the owner: M, E, S, F or I (uncached)")
	kind := c.String("kind", "dram", "memory backing the line: dram | mcdram")
	if code, ok := c.Parse(args); !ok {
		return code
	}
	cfg := c.Config()
	var st cache.State
	switch *state {
	case "M":
		st = cache.Modified
	case "E":
		st = cache.Exclusive
	case "S":
		st = cache.Shared
	case "F":
		st = cache.Forward
	case "I":
		st = cache.Invalid
	default:
		return c.Usagef("-state must be M, E, S, F or I")
	}
	var mk knl.MemKind
	switch *kind {
	case "dram":
		mk = knl.DDR
	case "mcdram":
		mk = knl.MCDRAM
	default:
		return c.Usagef("-kind must be dram or mcdram (got %q)", *kind)
	}
	if mk == knl.MCDRAM && cfg.Memory == knl.CacheMode {
		return c.Usagef("no flat MCDRAM in cache mode")
	}
	if *from < 0 || *from >= knl.NumCores {
		return c.Usagef("-from must be a core in 0..%d (got %d)", knl.NumCores-1, *from)
	}
	if st != cache.Invalid && (*owner < 0 || *owner >= knl.NumCores) {
		return c.Usagef("-owner must be a core in 0..%d (got %d)", knl.NumCores-1, *owner)
	}

	a, err := explain(cfg, mk, *from, *owner, st)
	if err != nil {
		return c.Fail(err)
	}

	place, reqTile := a.place, *from/knl.CoresPerTile
	cli.Fprintf(stdout, "configuration: %s | line backed by %v channel %d, home CHA on tile %d\n",
		cfg.Name(), place.Kind, place.Channel, place.HomeTile)
	cli.Fprintf(stdout, "request: core %d (tile %d) loads a line", *from, reqTile)
	if st != cache.Invalid {
		cli.Fprintf(stdout, " held %s by core %d (tile %d)", st, *owner, *owner/knl.CoresPerTile)
	} else {
		cli.Fprintf(stdout, " cached nowhere")
	}
	cli.Fprintf(stdout, "\n\nmeasured on the simulator: %.1f ns\n\n", a.latency)

	cli.Fprintf(stdout, "protocol walk (timing parameters):\n")
	for _, l := range a.legs {
		cli.Fprintf(stdout, "  %-42s %6.1f ns\n", l.name, l.ns)
	}

	model := core.Default()
	cli.Fprintf(stdout, "\ncapability-model abstraction:\n")
	switch a.src {
	case srcL1:
		cli.Fprintf(stdout, "  R_L (local cache read)      = %.1f ns\n", model.RL)
	case srcTile:
		cli.Fprintf(stdout, "  R_tile(%s)                   = %.1f / %.1f / %.1f ns (M/E/SF)\n",
			st, model.RTileM, model.RTileE, model.RTileSF)
	case srcRemote:
		cli.Fprintf(stdout, "  R_R (remote cache read)     = %.1f ns (band %.0f-%.0f)\n",
			model.RR, model.RRMin, model.RRMax)
	default:
		cli.Fprintf(stdout, "  R_I (memory read, %v)    = %.1f ns\n", mk, model.MemLatency(mk))
	}
	return 0
}

// access is one explained load.
type access struct {
	latency float64 // measured on the simulator, jitter off
	legs    []leg
	src     source
	place   cluster.LinePlace
}

// explain primes line 0 of a fresh jitter-free machine in state st at
// core owner (a line in state Invalid is cached nowhere), lists the walk
// of a load by core from, then runs that load.
func explain(cfg knl.Config, mk knl.MemKind, from, owner int, st cache.State) (access, error) {
	p := machine.DefaultParams()
	p.JitterFrac = 0
	m := machine.NewWithParams(cfg, p)
	buf := m.Alloc.MustAlloc(mk, 0, knl.LineSize)
	if st != cache.Invalid {
		m.Prime(buf, owner, st)
	}
	// The walk reads the primed state, so it is listed before the load
	// changes it.
	a := access{place: m.Mapper.Place(mk, 0, buf.Line(0))}
	a.legs, a.src = walk(m, buf.Line(0), from, a.place)
	s := &machine.Script{}
	s.Load(buf, 0)
	s.Do(func() { a.latency = m.Env.Now() }) // the load issued at time 0
	m.SpawnKernel(knl.Place{Tile: from / knl.CoresPerTile, Core: from}, s.Program())
	_, err := m.Run()
	return a, err
}

// leg is one charge of the load walk: a wait, a port service or a mesh
// traversal.
type leg struct {
	name string
	ns   float64
}

// source is where the load finds its data.
type source int

const (
	srcL1 source = iota
	srcTile
	srcRemote
	srcMem
)

// walk lists, in order, every charge the load walk (internal/machine's
// loadStep and memRead) makes when core from loads line l, placed at
// place, on the idle machine m: they add up to the measured latency with
// jitter off.
func walk(m *machine.Machine, l cache.Line, from int, place cluster.LinePlace) ([]leg, source) {
	p := m.P
	var legs []leg
	add := func(name string, ns float64) { legs = append(legs, leg{name, ns}) }
	// hop is a request packet: it holds its ring segments for FlitNs per
	// hop, then traverses.
	hop := func(name string, a, b knl.Pos) {
		if a == b {
			return
		}
		add("ring segments: "+name, m.Fabric.FlitNs*float64(a.Hops(b)))
		add("mesh: "+name, m.Router.Latency(a, b))
	}

	reqTile := from / knl.CoresPerTile
	if m.L1State(from, l).Readable() {
		add("L1 hit", p.L1HitNs)
		return legs, srcL1
	}
	switch m.LineState(reqTile, l) {
	case cache.Modified:
		add("shared L2 access + sibling L1 write-back", p.L2HitMNs)
		return legs, srcTile
	case cache.Exclusive:
		add("shared L2 access + clean sibling snoop", p.L2HitENs)
		return legs, srcTile
	case cache.Shared, cache.Forward:
		add("shared L2 access (S/F)", p.L2HitSFNs)
		return legs, srcTile
	}

	home := m.FP.TilePos(place.HomeTile)
	add("L1 miss + L2 tag check", p.L2MissDetectNs)
	hop("tile -> home CHA", m.FP.TilePos(reqTile), home)
	add("CHA tag-directory pipeline", p.CHASvcNs)
	for fwd := 0; fwd < m.NumTiles(); fwd++ {
		fst := m.LineState(fwd, l)
		if !fst.CanForward() {
			continue
		}
		svc, extra := p.OwnerPortSvcNs, p.OwnerExtraSFNs
		switch fst {
		case cache.Modified:
			svc, extra = p.OwnerPortSvcMNs, p.OwnerExtraMNs
		case cache.Exclusive:
			extra = p.OwnerExtraENs
		}
		hop("home -> forwarder", home, m.FP.TilePos(fwd))
		add("forwarder L2 port", svc)
		add(fmt.Sprintf("forwarding (%s state handling)", fst), extra)
		add("mesh: forwarder -> requester + fill", m.Router.TileToTile(fwd, reqTile)+p.DeliverNs)
		return legs, srcRemote
	}

	add("directory miss handling", p.DirMissNs)
	dev := m.Mem.Channel(place.Kind, place.Channel)
	port := fmt.Sprintf("%v channel port", place.Kind)
	if m.Policy.Enabled() && place.Kind == knl.DDR {
		// A cold line misses the side cache: the EDC forwards the request
		// to DDR, and the data fills the side cache on its way back.
		edc := m.Mapper.CacheEDC(place.Channel, l)
		hop("home -> side-cache EDC", home, m.FP.EDCPos[edc])
		add("MCDRAM side-cache tag probe", p.MCDRAMCacheTagNs)
		hop("EDC -> memory controller", m.FP.EDCPos[edc], m.FP.IMCPos[place.Channel/3])
		add(port, dev.Params().CmdSvcNs+dev.Params().ReadSvcNs)
		fill := m.Mem.Channel(knl.MCDRAM, edc).Params()
		add("MCDRAM side-cache fill port", fill.CmdSvcNs+fill.WriteSvcNs)
	} else {
		ctrl := m.FP.IMCPos[place.Channel/3]
		if place.Kind == knl.MCDRAM {
			ctrl = m.FP.EDCPos[place.Channel]
		}
		hop("home -> memory controller", home, ctrl)
		add(port, dev.Params().CmdSvcNs+dev.Params().ReadSvcNs)
	}
	add(fmt.Sprintf("%v device access", place.Kind), dev.DeviceLatencyNs())
	add("mesh: controller -> requester + fill", ctrlLeg(m, reqTile, place)+p.DeliverNs)
	return legs, srcMem
}

// ctrlLeg is the mesh latency between a tile and the controller serving
// the placed line.
func ctrlLeg(m *machine.Machine, tile int, place cluster.LinePlace) float64 {
	if place.Kind == knl.DDR {
		return m.Router.TileToIMC(tile, place.Channel)
	}
	return m.Router.TileToEDC(tile, place.Channel)
}
