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

	p := machine.DefaultParams()
	p.JitterFrac = 0
	m := machine.NewWithParams(cfg, p)
	buf := m.Alloc.MustAlloc(mk, 0, knl.LineSize)
	if st != cache.Invalid {
		m.Prime(buf, *owner, st)
	}

	var latency float64
	reqTile := *from / knl.CoresPerTile
	s := &machine.Script{}
	s.Load(buf, 0)
	s.Do(func() { latency = m.Env.Now() }) // the load issued at time 0
	m.SpawnKernel(knl.Place{Tile: reqTile, Core: *from}, s.Program())
	if _, err := m.Run(); err != nil {
		return c.Fail(err)
	}

	place := m.Mapper.Place(mk, 0, buf.Line(0))
	cli.Fprintf(stdout, "configuration: %s | line backed by %v channel %d, home CHA on tile %d\n",
		cfg.Name(), place.Kind, place.Channel, place.HomeTile)
	cli.Fprintf(stdout, "request: core %d (tile %d) loads a line", *from, reqTile)
	if st != cache.Invalid {
		cli.Fprintf(stdout, " held %s by core %d (tile %d)", st, *owner, *owner/knl.CoresPerTile)
	} else {
		cli.Fprintf(stdout, " cached nowhere")
	}
	cli.Fprintf(stdout, "\n\nmeasured on the simulator: %.1f ns\n\n", latency)

	cli.Fprintf(stdout, "protocol walk (timing parameters):\n")
	step := func(name string, v float64) { cli.Fprintf(stdout, "  %-42s %6.1f ns\n", name, v) }
	ownerTile := *owner / knl.CoresPerTile
	switch {
	case st != cache.Invalid && ownerTile == reqTile && *owner == *from:
		step("L1 hit", p.L1HitNs)
	case st != cache.Invalid && ownerTile == reqTile:
		switch st {
		case cache.Modified:
			step("shared L2 access + sibling L1 write-back", p.L2HitMNs)
		case cache.Exclusive:
			step("shared L2 access + clean sibling snoop", p.L2HitENs)
		default:
			step("shared L2 access (S/F)", p.L2HitSFNs)
		}
	default:
		step("L1 miss + L2 tag check", p.L2MissDetectNs)
		step("mesh: tile -> home CHA", m.Router.TileToTile(reqTile, place.HomeTile))
		step("CHA tag-directory pipeline", p.CHASvcNs)
		if st != cache.Invalid {
			fwdTile := ownerTile
			step("mesh: home -> forwarder", m.Router.TileToTile(place.HomeTile, fwdTile))
			svc, extra := p.OwnerPortSvcNs, p.OwnerExtraSFNs
			switch st {
			case cache.Modified:
				svc, extra = p.OwnerPortSvcMNs, p.OwnerExtraMNs
			case cache.Exclusive:
				extra = p.OwnerExtraENs
			}
			step("forwarder L2 port", svc)
			step(fmt.Sprintf("forwarding (%s state handling)", st), extra)
			step("mesh: forwarder -> requester + fill", m.Router.TileToTile(fwdTile, reqTile)+p.DeliverNs)
		} else {
			step("directory miss handling", p.DirMissNs)
			dev := m.Mem.Channel(place.Kind, place.Channel)
			if cfg.Memory != knl.Flat && place.Kind == knl.DDR {
				step("MCDRAM side-cache tag probe", p.MCDRAMCacheTagNs)
			}
			step("mesh: home -> memory controller", ctrlLeg(m, place.HomeTile, place))
			step(fmt.Sprintf("%v channel port", place.Kind), dev.Params().CmdSvcNs+dev.Params().ReadSvcNs)
			step(fmt.Sprintf("%v device access", place.Kind), dev.DeviceLatencyNs())
			step("mesh: controller -> requester + fill", ctrlLeg(m, reqTile, place)+p.DeliverNs)
		}
	}

	model := core.Default()
	cli.Fprintf(stdout, "\ncapability-model abstraction:\n")
	switch {
	case st != cache.Invalid && *owner == *from:
		cli.Fprintf(stdout, "  R_L (local cache read)      = %.1f ns\n", model.RL)
	case st != cache.Invalid && ownerTile == reqTile:
		cli.Fprintf(stdout, "  R_tile(%s)                   = %.1f / %.1f / %.1f ns (M/E/SF)\n",
			st, model.RTileM, model.RTileE, model.RTileSF)
	case st != cache.Invalid:
		cli.Fprintf(stdout, "  R_R (remote cache read)     = %.1f ns (band %.0f-%.0f)\n",
			model.RR, model.RRMin, model.RRMax)
	default:
		cli.Fprintf(stdout, "  R_I (memory read, %v)    = %.1f ns\n", mk, model.MemLatency(mk))
	}
	return 0
}

// ctrlLeg is the mesh latency between a tile and the controller serving
// the placed line.
func ctrlLeg(m *machine.Machine, tile int, place cluster.LinePlace) float64 {
	if place.Kind == knl.DDR {
		return m.Router.TileToIMC(tile, place.Channel)
	}
	return m.Router.TileToEDC(tile, place.Channel)
}
