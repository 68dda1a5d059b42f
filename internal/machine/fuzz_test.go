package machine

import (
	"testing"

	"knlcap/internal/knl"
	"knlcap/internal/memmode"
)

// runFuzzProgram partitions a byte-encoded program across 8 actors and
// runs it to completion over buf. Each input byte encodes (op, actor,
// line): op = b>>6, actor = (b>>2)&7, line = b&3. Ops 0-2 are a load, a
// store and an NT store of the line, except that actor 7's NT store is an
// AddWord of 1 to the line's payload word (no actor waits on a word, so
// nothing can deadlock); op 3 is a short stream over the buffer chosen by
// the line bits (a scalar or vector read, or a copy of lines 0-1 onto 2-3
// with cached or NT stores).
func runFuzzProgram(m *Machine, buf memmode.Buffer, program []byte) error {
	perActor := make([][]byte, 8)
	for _, b := range program {
		actor := int(b>>2) & 7
		perActor[actor] = append(perActor[actor], b)
	}
	for a, ops := range perActor {
		if len(ops) == 0 {
			continue
		}
		core := (a * 7) % knl.NumCores
		ops := ops
		spawnScript(m, place(core), func(s *Script) {
			for _, b := range ops {
				li := int(b) & 3
				switch b >> 6 {
				case 0:
					s.Load(buf, li)
				case 1:
					s.Store(buf, li)
				case 2:
					if a == 7 {
						s.AddWord(buf, li, 1, nil)
					} else {
						s.StoreNT(buf, li)
					}
				default:
					switch li {
					case 0:
						s.ReadStreamRange(buf, 0, 4, false)
					case 1:
						s.ReadStreamRange(buf, 1, 2, true)
					default:
						s.CopyStreamRange(buf, buf, 2, 0, 2, li == 3)
					}
				}
			}
		})
	}
	_, err := m.Run()
	return err
}

// FuzzCoherence drives byte-encoded operation sequences from fuzzer input
// through the protocol and checks the MESIF invariants, then replays the
// program over the epoch-flushed buffer (a flushed-then-reprimed line must
// behave like a fresh one) and over a Reset machine (whose digest must
// match the fresh run exactly, so recycled side-table capacity never
// leaks a stale payload word).
// Run open-ended with `go test -fuzz FuzzCoherence ./internal/machine`.
func FuzzCoherence(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0xc3})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x7f, 0x80})
	f.Add([]byte{0xbc, 0x1d, 0xbd, 0xbd, 0x9e, 0xff})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) == 0 {
			return
		}
		for _, cfg := range []knl.Config{
			knl.DefaultConfig(),
			knl.DefaultConfig().WithModes(knl.A2A, knl.CacheMode),
		} {
			m := noJitterF(cfg)
			buf := m.Alloc.MustAlloc(knl.DDR, 0, 4*knl.LineSize)
			if err := runFuzzProgram(m, buf, program); err != nil {
				t.Fatalf("%s: %v", cfg.Name(), err)
			}
			checkCoherence(t, m, []memmode.Buffer{buf})
			freshDigest := m.StateDigest()

			// Epoch flush, then replay: the flushed buffer must present as
			// fully uncached, and a second run over it must uphold the same
			// invariants.
			m.FlushBuffer(buf)
			for li := 0; li < buf.NumLines(); li++ {
				if o := m.owners(buf.Line(li)); o != 0 {
					t.Fatalf("%s: line %d owners %b survive FlushBuffer", cfg.Name(), li, o)
				}
			}
			if err := runFuzzProgram(m, buf, program); err != nil {
				t.Fatalf("%s (replay): %v", cfg.Name(), err)
			}
			checkCoherence(t, m, []memmode.Buffer{buf})

			// Reset, then replay from scratch: bit-identical to the fresh run.
			m.Reset(noJitterParams(), cfg.YieldSeed)
			buf2 := m.Alloc.MustAlloc(knl.DDR, 0, 4*knl.LineSize)
			if err := runFuzzProgram(m, buf2, program); err != nil {
				t.Fatalf("%s (reset replay): %v", cfg.Name(), err)
			}
			if d := m.StateDigest(); d != freshDigest {
				t.Fatalf("%s: reset replay digest %#x, fresh %#x", cfg.Name(), d, freshDigest)
			}
			checkCoherence(t, m, []memmode.Buffer{buf2})
		}
	})
}

// noJitterParams returns the default timing parameters with jitter off.
func noJitterParams() Params {
	p := DefaultParams()
	p.JitterFrac = 0
	return p
}

// noJitterF mirrors the test helper without *testing.T plumbing.
func noJitterF(cfg knl.Config) *Machine {
	return NewWithParams(cfg, noJitterParams())
}
