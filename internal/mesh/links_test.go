package mesh

import (
	"testing"

	"knlcap/internal/knl"
	"knlcap/internal/sim"
)

func TestOccupyHoldsRings(t *testing.T) {
	env := sim.NewEnv()
	f := NewLinkFabric(env, DefaultParams())
	a := knl.Pos{X: 0, Y: 0}
	b := knl.Pos{X: 3, Y: 4}
	env.GoSteps("pkt", &stepLoop{n: 1, body: func(x *sim.StepCtx) { f.OccupyCtx(x, a, b) }})
	end, err := env.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := f.FlitNs * float64(4+3) // Y leg 4 hops + X leg 3 hops
	if end != want {
		t.Errorf("occupancy time = %v, want %v", end, want)
	}
}

func TestOccupySamePositionFree(t *testing.T) {
	env := sim.NewEnv()
	f := NewLinkFabric(env, DefaultParams())
	p := knl.Pos{X: 2, Y: 2}
	env.GoSteps("pkt", &stepLoop{n: 1, body: func(x *sim.StepCtx) { f.OccupyCtx(x, p, p) }})
	if end, err := env.Run(); err != nil || end != 0 {
		t.Errorf("same-position occupy: end=%v err=%v", end, err)
	}
}

func TestOppositeDirectionsDoNotContend(t *testing.T) {
	env := sim.NewEnv()
	f := NewLinkFabric(env, DefaultParams())
	// Two packets along the same row in opposite directions use the two
	// discrete rings each stop sees (paper Section II-B).
	for i := 0; i < 2; i++ {
		i := i
		env.GoSteps("pkt", &stepLoop{n: 1, body: func(x *sim.StepCtx) {
			if i == 0 {
				f.OccupyCtx(x, knl.Pos{X: 0, Y: 2}, knl.Pos{X: 5, Y: 2})
			} else {
				f.OccupyCtx(x, knl.Pos{X: 5, Y: 2}, knl.Pos{X: 0, Y: 2})
			}
		}})
	}
	end, err := env.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := f.FlitNs * 5; end != want {
		t.Errorf("opposite directions serialized: end=%v want %v", end, want)
	}
}

func TestSameDirectionSerializes(t *testing.T) {
	env := sim.NewEnv()
	f := NewLinkFabric(env, DefaultParams())
	for i := 0; i < 2; i++ {
		env.GoSteps("pkt", &stepLoop{n: 1, body: func(x *sim.StepCtx) {
			f.OccupyCtx(x, knl.Pos{X: 0, Y: 2}, knl.Pos{X: 5, Y: 2})
		}})
	}
	end, err := env.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * f.FlitNs * 5; end != want {
		t.Errorf("same-direction packets: end=%v want %v", end, want)
	}
}

func TestEDCRowsReachable(t *testing.T) {
	env := sim.NewEnv()
	f := NewLinkFabric(env, DefaultParams())
	env.GoSteps("pkt", &stepLoop{n: 1, body: func(x *sim.StepCtx) {
		f.OccupyCtx(x, knl.Pos{X: 2, Y: 3}, knl.Pos{X: 0, Y: -1})           // to a top EDC
		f.OccupyCtx(x, knl.Pos{X: 2, Y: 3}, knl.Pos{X: 5, Y: knl.GridRows}) // to a bottom EDC
	}})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if f.Utilization() <= 0 {
		t.Error("no ring utilization recorded")
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
