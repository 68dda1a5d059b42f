package cache

import (
	"testing"

	"knlcap/internal/stats"
)

// TestSetAssocMatchesFlatReference drives the block-lazy SetAssoc and the
// flat single-slice reference with the same random operation sequences and
// requires every return value, victim, counter, occupancy and digest to
// agree (InsertAbsent of an absent line must match the reference's
// Insert). Lines are drawn from a few hot sets spread over the blocks, with
// more tags per set than ways, so evictions, re-inserts and state changes
// all happen; Flush and Reset interleave rarely.
func TestSetAssocMatchesFlatReference(t *testing.T) {
	geoms := []struct {
		name      string
		cap, ways int
	}{
		{"L1", 32 << 10, 8},
		{"L2", 1 << 20, 16},
	}
	for _, g := range geoms {
		for seed := uint64(1); seed <= 8; seed++ {
			diffRun(t, g.name, g.cap, g.ways, seed, 4000)
		}
	}
}

func diffRun(t *testing.T, name string, capBytes, ways int, seed uint64, n int) {
	t.Helper()
	got := NewSetAssoc(name, capBytes, ways)
	want := newFlatSetAssoc(capBytes, ways)
	rng := stats.NewRNG(seed)
	sets := got.Sets()
	hot := make([]int, 6)
	for i := range hot {
		hot[i] = rng.Intn(sets)
	}
	line := func() Line {
		if rng.Intn(8) == 0 {
			return Line(rng.Uint64() >> 20) // anywhere
		}
		return Line(hot[rng.Intn(len(hot))] + sets*rng.Intn(2*ways))
	}
	state := func() State { return State(1 + rng.Intn(4)) } // S, E, M or F
	fail := func(i int, what string, g, w any) {
		t.Fatalf("%s seed %d op %d: %s = %v, reference %v", name, seed, i, what, g, w)
	}
	for i := 0; i < n; i++ {
		l := line()
		switch r := rng.Intn(100); {
		case r < 40:
			s := state()
			// A quarter of the inserts of absent lines take InsertAbsent,
			// as a caller that knows the line is absent would.
			insert := got.Insert
			if r < 10 && got.Peek(l) == Invalid {
				insert = got.InsertAbsent
			}
			if g, w := insert(l, s), want.Insert(l, s); g != w {
				fail(i, "Insert victim", g, w)
			}
		case r < 55:
			if g, w := got.Lookup(l), want.Lookup(l); g != w {
				fail(i, "Lookup", g, w)
			}
		case r < 60:
			// Miss stands in for a Lookup the caller knows will miss: it
			// must leave the same counters and digest.
			if got.Peek(l) != Invalid {
				continue
			}
			got.Miss()
			if w := want.Lookup(l); w != Invalid {
				fail(i, "Lookup after Miss", Invalid, w)
			}
			if g, w := got.Digest(), want.Digest(); g != w {
				fail(i, "Digest after Miss", g, w)
			}
		case r < 70:
			if g, w := got.Peek(l), want.Peek(l); g != w {
				fail(i, "Peek", g, w)
			}
		case r < 80:
			s := State(rng.Intn(5)) // Invalid included: removes the line
			got.SetState(l, s)
			want.SetState(l, s)
		case r < 98:
			if g, w := got.Invalidate(l), want.Invalidate(l); g != w {
				fail(i, "Invalidate", g, w)
			}
		case r < 99:
			got.Flush()
			want.Flush()
		default:
			got.Reset()
			want.Reset()
		}
		gh, gm, ge := got.Stats()
		wh, wm, we := want.Stats()
		if gh != wh || gm != wm || ge != we {
			fail(i, "Stats", [3]uint64{gh, gm, ge}, [3]uint64{wh, wm, we})
		}
		if i%64 == 0 || i == n-1 {
			if g, w := got.Occupancy(), want.Occupancy(); g != w {
				fail(i, "Occupancy", g, w)
			}
			each := 0
			got.Each(func(l Line, s State) {
				if w := want.Peek(l); s != w {
					fail(i, "Each state", s, w)
				}
				each++
			})
			if w := want.Occupancy(); each != w {
				fail(i, "Each count", each, w)
			}
			if g, w := got.Digest(), want.Digest(); g != w {
				fail(i, "Digest", g, w)
			}
		}
	}
}
