package machine

import (
	"testing"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/memmode"
	"knlcap/internal/stats"
)

// primeRef is Machine.Prime as it was before the buffer-at-a-time walk:
// every line is flushed through FlushLine and installed through
// installL2Tags, each resolving the line's slot again. It is kept as the
// reference the slot walk is checked against
// (TestPrimeMatchesPerLineReference).
func primeRef(m *Machine, b memmode.Buffer, core int, st cache.State) {
	tile := core / knl.CoresPerTile
	for i := 0; i < b.NumLines(); i++ {
		l := b.Line(i)
		m.FlushLine(l)
		switch st {
		case cache.Modified, cache.Exclusive:
			primeOneRef(m, l, tile, core, st)
		case cache.Shared:
			primeOneRef(m, l, tile, core, cache.Shared)
			nb := m.neighborTile(tile)
			primeOneRef(m, l, nb, nb*knl.CoresPerTile, cache.Forward)
		case cache.Forward:
			primeOneRef(m, l, tile, core, cache.Forward)
			nb := m.neighborTile(tile)
			primeOneRef(m, l, nb, nb*knl.CoresPerTile, cache.Shared)
		case cache.Invalid:
			// Already flushed.
		default:
			panic("machine: cannot prime state " + st.String())
		}
	}
}

// primeOneRef installs the line in one tile's L2 and one core's L1.
func primeOneRef(m *Machine, l cache.Line, tile, core int, st cache.State) {
	m.installL2Tags(tile, l, st)
	m.cores[core].l1.Insert(l, st)
}

// primePair is two identical machines, one primed by Prime and one by
// primeRef, driven through the same operations.
type primePair struct {
	got, want *Machine
	bufs      [][2]memmode.Buffer // the same allocation on each machine
}

func (p *primePair) alloc(kind knl.MemKind, lines int) {
	p.bufs = append(p.bufs, [2]memmode.Buffer{
		p.got.Alloc.MustAlloc(kind, 0, int64(lines)*knl.LineSize),
		p.want.Alloc.MustAlloc(kind, 0, int64(lines)*knl.LineSize),
	})
}

// conflictSets is the number of L2 sets: lines conflictSets apart map to
// the same set, so priming slices at more such offsets than an L2 has
// ways onto one tile evicts.
const conflictSets = knl.L2Bytes / (knl.L2Ways * knl.LineSize)

// TestPrimeMatchesPerLineReference drives Prime and the per-line reference
// with the same random sequences in all 15 cluster x memory modes and
// requires equal StateDigests and a clean CheckPresence after every step.
// The sequences mix Prime in all five states (whole buffers, Slice
// sub-buffers, set-conflicting slices that evict, and buffers other tiles
// already cache), FlushBuffer of whole buffers and slices, FlushLine, and
// kernels of loads, stores and short streams.
func TestPrimeMatchesPerLineReference(t *testing.T) {
	for _, cm := range knl.ClusterModes {
		for _, mm := range []knl.MemoryMode{knl.Flat, knl.CacheMode, knl.Hybrid} {
			cfg := knl.DefaultConfig().WithModes(cm, mm)
			primeRefRun(t, cfg, 40)
		}
	}
}

func primeRefRun(t *testing.T, cfg knl.Config, steps int) {
	t.Helper()
	p := &primePair{got: New(cfg), want: New(cfg)}
	p.alloc(knl.DDR, 24)
	p.alloc(knl.DDR, 700) // more than an L1 holds
	if cfg.Memory != knl.CacheMode {
		p.alloc(knl.MCDRAM, 40)
	}
	p.alloc(knl.DDR, (knl.L2Ways+2)*conflictSets)
	conflict := len(p.bufs) - 1
	rng := stats.NewRNG(cfg.YieldSeed ^ uint64(cfg.Cluster)<<8 ^ uint64(cfg.Memory))
	cores := p.got.NumCores()
	for step := 0; step < steps; step++ {
		var what string
		bi := rng.Intn(len(p.bufs))
		full := p.bufs[bi]
		n := full[0].NumLines()
		// slice picks the same random line range of the chosen buffer on
		// both machines.
		slice := func(from, lines int) [2]memmode.Buffer {
			off, bytes := int64(from)*knl.LineSize, int64(lines)*knl.LineSize
			return [2]memmode.Buffer{full[0].Slice(off, bytes), full[1].Slice(off, bytes)}
		}
		prime := func(b [2]memmode.Buffer) {
			core, st := rng.Intn(cores), cache.State(rng.Intn(5))
			p.got.Prime(b[0], core, st)
			primeRef(p.want, b[1], core, st)
			what = "Prime " + st.String()
		}
		switch r := rng.Intn(20); {
		case r < 4:
			prime(full)
		case r < 8:
			from := rng.Intn(n)
			prime(slice(from, 1+rng.Intn(min(n-from, 64))))
		case r < 12:
			// A few lines at each conflict offset, in random order, onto
			// one of tile 0's cores: the offsets outnumber the L2 ways, so
			// the later primes evict lines of the earlier ones (and of the
			// neighbour's S/F copies).
			full = p.bufs[conflict]
			core, lines := rng.Intn(knl.CoresPerTile), 1+rng.Intn(3)
			for _, k := range rng.Perm(knl.L2Ways + 2) {
				b := slice(k*conflictSets, lines)
				st := cache.State(1 + rng.Intn(4))
				p.got.Prime(b[0], core, st)
				primeRef(p.want, b[1], core, st)
			}
			what = "conflict Prime"
		case r < 14:
			b := full
			if rng.Intn(2) == 0 {
				from := rng.Intn(n)
				b = slice(from, 1+rng.Intn(n-from))
			}
			p.got.FlushBuffer(b[0])
			p.want.FlushBuffer(b[1])
			what = "FlushBuffer"
		case r < 15:
			li := rng.Intn(n)
			p.got.FlushLine(full[0].Line(li))
			p.want.FlushLine(full[1].Line(li))
			what = "FlushLine"
		default:
			actors := 1 + rng.Intn(3)
			ops := make([][3]int, 0, 8*actors)
			for a := 0; a < actors; a++ {
				core := rng.Intn(cores)
				for j := 0; j < 8; j++ {
					ops = append(ops, [3]int{core, rng.Intn(4), rng.Intn(min(n, 64))})
				}
			}
			for side, m := range []*Machine{p.got, p.want} {
				buf := full[side]
				for a := 0; a < actors; a++ {
					spawnScript(m, place(ops[8*a][0]), func(s *Script) {
						for _, op := range ops[8*a : 8*a+8] {
							switch li := op[2]; op[1] {
							case 0:
								s.Load(buf, li)
							case 1:
								s.Store(buf, li)
							case 2:
								s.StoreNT(buf, li)
							default:
								s.ReadStreamRange(buf, li, min(4, n-li), li%2 == 0)
							}
						}
					})
				}
				if _, err := m.Run(); err != nil {
					t.Fatalf("%s step %d: %v", cfg.Name(), step, err)
				}
			}
			what = "kernels"
		}
		if err := p.got.CheckPresence(); err != nil {
			t.Fatalf("%s step %d (%s): %v", cfg.Name(), step, what, err)
		}
		if g, w := p.got.StateDigest(), p.want.StateDigest(); g != w {
			t.Fatalf("%s step %d (%s): digest %#x, per-line reference %#x", cfg.Name(), step, what, g, w)
		}
	}
}
