package sim

import (
	"math"
	"reflect"
	"testing"
)

// fracJit mirrors the machine layer's jitter: d*(1 + frac*(2u-1)) for a
// fixed draw u, and d itself when frac is 0. It counts its draws.
type fracJit struct {
	frac  float64
	draws int
}

func (j *fracJit) Jitter(d Time) Time {
	j.draws++
	if j.frac == 0 {
		return d
	}
	return d * (1 + j.frac*(2*0.9-1))
}

// hookRec is one OnOp call.
type hookRec struct {
	proc string
	op   TimeOp
	d    Time
	at   Time
}

// Durations of the time-op scenario. They are variables, so the expected
// instants below are float64 sums in clock order rather than exact
// constant arithmetic, and they are chosen so that the top-up's remainder
// rounds: now + (lat - (now - anchor)) differs in its last bit from both
// anchor + lat and (now + lat) - (now - anchor) at the bounds the cases
// use, so a replay that reorders the arithmetic fails.
var (
	tBlock = 1.95  // the blocker's hold, the measured process's queue delay
	tHold  = 1.865 // the measured process's contended Use
	tWait1 = 0.937
	tIdle  = 0.491 // idle Use after the Mark
	tWait2 = 0.081
	tTail  = 0.5
)

// runTimeOps runs the scenario: a blocker holds r for tBlock while the
// measured process queues on it (contended Use), then the measured process
// waits, marks, uses an idle resource, waits, tops up to lat and waits
// once more. It returns every OnOp record, the measured process's end time
// and Env.Seq.
func runTimeOps(t *testing.T, j Jitterer, lat Time) ([]hookRec, Time, uint64) {
	t.Helper()
	env := NewEnv()
	r := NewResource(env, "r", 1)
	idle := NewResource(env, "idle", 1)
	var recs []hookRec
	env.OnOp = func(p *Proc, op TimeOp, d Time) {
		recs = append(recs, hookRec{p.name, op, d, env.Now()})
	}
	env.GoSteps("blocker", junctures(func(c *StepCtx) { c.Use(r, tBlock) }))
	var end Time
	env.GoSteps("measured", junctures(
		func(c *StepCtx) {
			c.Use(r, tHold)
			c.Wait(tWait1)
		},
		func(c *StepCtx) {
			c.Mark()
			c.Use(idle, tIdle)
			c.Wait(tWait2)
		},
		func(c *StepCtx) { c.TopUpJit(j, lat) },
		func(c *StepCtx) { c.Wait(tTail) },
		func(c *StepCtx) { end = c.Now() },
	))
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return recs, end, env.Seq()
}

// runWaitOnly is the scenario written with plain waits: the contended Use
// becomes its queue delay plus its hold, and the top-up is the comparison
// and jittered remainder spelled out.
func runWaitOnly(t *testing.T, j Jitterer, lat Time) (Time, uint64) {
	t.Helper()
	env := NewEnv()
	env.GoSteps("blocker", junctures(func(c *StepCtx) { c.Wait(tBlock) }))
	var anchor, end Time
	env.GoSteps("measured", junctures(
		func(c *StepCtx) { c.Wait(tBlock) },
		func(c *StepCtx) {
			c.Wait(tHold)
			c.Wait(tWait1)
		},
		func(c *StepCtx) {
			anchor = c.Now()
			c.Wait(tIdle)
			c.Wait(tWait2)
		},
		func(c *StepCtx) {
			if el := c.Now() - anchor; el < lat {
				c.Wait(j.Jitter(lat - el))
			}
		},
		func(c *StepCtx) { c.Wait(tTail) },
		func(c *StepCtx) { end = c.Now() },
	))
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return end, env.Seq()
}

// TestTimeOpHookAndReplay pins the one observation hook and its
// interpreter: OnOp reports every wait, Use hold, Mark and TopUpJit bound
// — but not the top-up's remainder — Replay of the measured process's
// record reproduces its end time bit-for-bit whenever jitter is off, and
// Mark/TopUpJit schedule exactly the events of the equivalent plain waits.
func TestTimeOpHookAndReplay(t *testing.T) {
	cases := []struct {
		name  string
		frac  float64
		lat   Time
		fires bool
	}{
		{"remainder-fires", 0, 8.935, true},
		{"remainder-skipped", 0, 0.3, false},
		{"jittered", 0.25, 8.935, true},
		{"jitterfrac-0", 0, 8.575, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := &fracJit{frac: tc.frac}
			recs, end, seq := runTimeOps(t, j, tc.lat)

			want := []hookRec{
				{"blocker", TimeWait, tBlock, 0},
				{"measured", TimeWait, tHold, tBlock}, // reported when the hold begins
				{"measured", TimeWait, tWait1, tBlock + tHold},
				{"measured", TimeMark, 0, tBlock + tHold + tWait1},
				{"measured", TimeWait, tIdle, tBlock + tHold + tWait1},
				{"measured", TimeWait, tWait2, tBlock + tHold + tWait1 + tIdle},
				{"measured", TimeTopUp, tc.lat, tBlock + tHold + tWait1 + tIdle + tWait2},
			}
			tail := want[len(want)-1].at
			if tc.fires {
				tail = end - tTail
			}
			want = append(want, hookRec{"measured", TimeWait, tTail, tail})
			if !reflect.DeepEqual(recs, want) {
				t.Fatalf("hook records:\n got %v\nwant %v", recs, want)
			}
			wantDraws := 0
			if tc.fires {
				wantDraws = 1
			}
			if j.draws != wantDraws {
				t.Errorf("jitter drawn %d times, want %d", j.draws, wantDraws)
			}

			// Replay the measured process's record from its first op.
			var ops []TimeOp
			var args []Time
			for _, r := range recs[1:] {
				ops = append(ops, r.op)
				args = append(args, r.d)
			}
			start := recs[1].at
			got, _ := Replay(start, start, ops, args)
			if tc.frac == 0 && math.Float64bits(got) != math.Float64bits(end) {
				t.Errorf("Replay = %v (%#x), end = %v (%#x)", got, math.Float64bits(got), end, math.Float64bits(end))
			}
			if tc.frac != 0 && math.Float64bits(got) == math.Float64bits(end) {
				t.Errorf("Replay reproduced a jittered remainder (%v): the gate's self-check could not reject it", got)
			}

			wEnd, wSeq := runWaitOnly(t, &fracJit{frac: tc.frac}, tc.lat)
			if seq != wSeq || math.Float64bits(end) != math.Float64bits(wEnd) {
				t.Errorf("Seq/end = %d/%v, Wait-only equivalent %d/%v", seq, end, wSeq, wEnd)
			}
		})
	}
}

// TestMarkTopUpAfterQueuedOpsPanic: Mark and TopUpJit act on the clock at
// once, so a queued op ahead of them would make them read a stale time.
func TestMarkTopUpAfterQueuedOpsPanic(t *testing.T) {
	for _, tc := range []struct {
		name string
		prim func(c *StepCtx)
	}{
		{"Mark", func(c *StepCtx) { c.Mark() }},
		{"TopUpJit", func(c *StepCtx) { c.TopUpJit(&fracJit{}, 1) }},
	} {
		name, prim := tc.name, tc.prim
		t.Run(name, func(t *testing.T) {
			env := NewEnv()
			env.GoSteps("p", junctures(func(c *StepCtx) {
				c.Wait(1)
				prim(c)
			}))
			defer func() {
				if recover() == nil {
					t.Errorf("%s after a queued Wait did not panic", name)
				}
			}()
			_, _ = env.Run()
		})
	}
}
