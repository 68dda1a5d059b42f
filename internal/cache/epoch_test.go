package cache

import "testing"

// maxEpoch is the last epoch before the uint32 wraparound.
const maxEpoch = ^uint32(0)

// TestSetAssocEpochWraparound drives Flush and Reset across the uint32
// epoch wraparound. bumpEpoch must clear the blocks and restart at 1: an
// entry written at epoch 1 long ago would otherwise read live again, and
// epoch 0 is reserved for invalid ways. The epoch is invisible state, so
// the digest must equal that of an array that never came near the wrap.
func TestSetAssocEpochWraparound(t *testing.T) {
	for _, op := range []struct {
		name string
		do   func(*SetAssoc)
	}{
		{"Flush", (*SetAssoc).Flush},
		{"Reset", (*SetAssoc).Reset},
	} {
		t.Run(op.name, func(t *testing.T) {
			c := NewSetAssoc("t", 32<<10, 8)
			ref := NewSetAssoc("t", 32<<10, 8)
			c.Insert(100, Exclusive) // written at epoch 1
			c.epoch = maxEpoch
			ref.Insert(100, Exclusive)
			ref.Flush()
			for _, a := range []*SetAssoc{c, ref} {
				a.Insert(3, Modified)
				a.Insert(3+64, Shared)
				a.Lookup(3)
				op.do(a)
			}
			if c.epoch != 1 {
				t.Fatalf("epoch after the wrap = %d, want 1", c.epoch)
			}
			for _, l := range []Line{3, 3 + 64, 100} {
				if s := c.Peek(l); s != Invalid {
					t.Errorf("line %d reads %v after the wrap, want I", l, s)
				}
			}
			for _, b := range c.blocks {
				for i := range b {
					if c.live(&b[i]) {
						t.Errorf("entry %d (line %d) is live after the wrap", i, b[i].line)
					}
				}
			}
			if n := c.Occupancy(); n != 0 {
				t.Errorf("Occupancy = %d, want 0", n)
			}
			if g, w := c.Digest(), ref.Digest(); g != w {
				t.Errorf("Digest = %#x, want %#x (same history without the wrap)", g, w)
			}
			if op.name == "Reset" {
				if g, w := c.Digest(), NewSetAssoc("t", 32<<10, 8).Digest(); g != w {
					t.Errorf("Digest = %#x, want a fresh array's %#x", g, w)
				}
			}
		})
	}
}

// TestDirectMappedEpochWraparound is the side cache's twin: Reset across
// the wraparound clears the slices and restarts at 1, so the entry filled
// at epoch 1 long ago does not read present again.
func TestDirectMappedEpochWraparound(t *testing.T) {
	d := NewDirectMapped("t", 64*16)
	d.Fill(100) // written at epoch 1
	d.cur = maxEpoch
	d.Fill(3)
	d.MarkDirty(3)
	d.Probe(3)
	d.Reset()
	if d.cur != 1 {
		t.Fatalf("epoch after the wrap = %d, want 1", d.cur)
	}
	for _, l := range []Line{3, 100} {
		if d.Peek(l) || d.IsDirty(l) {
			t.Errorf("line %d reads present after the wrap", l)
		}
	}
	live := 0
	for i := uint64(0); i < d.Sets(); i++ {
		if d.live(i) {
			live++
		}
	}
	if live != 0 {
		t.Errorf("%d entries live after the wrap, want 0", live)
	}
	if g, w := d.Digest(), NewDirectMapped("t", 64*16).Digest(); g != w {
		t.Errorf("Digest = %#x, want a fresh array's %#x", g, w)
	}
}
