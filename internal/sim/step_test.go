package sim

import "testing"

// TestStepWaitAdvancesTime: several primitives queued in one juncture run
// back to back before the next Step call.
func TestStepWaitAdvancesTime(t *testing.T) {
	env := NewEnv()
	var at Time
	env.GoSteps("a", junctures(
		func(c *StepCtx) {
			c.Wait(10)
			c.Wait(5.5)
		},
		func(c *StepCtx) { at = c.Now() },
	))
	end, err := env.Run()
	if err != nil {
		t.Fatal(err)
	}
	if at != 15.5 || end != 15.5 {
		t.Errorf("time = %v / end %v, want 15.5", at, end)
	}
}

func TestGoStepsAtAndWaitUntil(t *testing.T) {
	env := NewEnv()
	var times []Time
	env.GoStepsAt(100, "late", stepFunc(func(c *StepCtx) {
		times = append(times, c.Now())
		c.End()
	}))
	first := true
	env.GoSteps("early", stepFunc(func(c *StepCtx) {
		if first {
			first = false
			c.WaitUntil(50)
			return
		}
		times = append(times, c.Now())
		c.End()
	}))
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 50 || times[1] != 100 {
		t.Errorf("times = %v, want [50 100]", times)
	}
}

// stepFunc adapts a function to the Stepper interface for small tests.
type stepFunc func(c *StepCtx)

func (f stepFunc) Step(c *StepCtx) { f(c) }

// TestSignalZeroWaiterBroadcast: a Broadcast with no waiters must only bump
// the version — before anyone ever waited, and again after all waiters have
// been woken and retired.
func TestSignalZeroWaiterBroadcast(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var woke []Time
	env.GoSteps("driver", junctures(
		func(c *StepCtx) {
			sig.Broadcast() // no waiters ever: version bump only
			c.Wait(10)
		},
		func(c *StepCtx) {
			sig.Broadcast() // waiter present: wakes it
			c.Wait(10)
		},
		func(c *StepCtx) { sig.Broadcast() }, // waiter already retired: no-op again
	))
	env.GoSteps("waiter", stepFunc(func(c *StepCtx) {
		if len(woke) == 0 && c.Now() == 0 {
			c.WaitSignal(sig)
			return
		}
		woke = append(woke, c.Now())
		c.End()
	}))
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 1 || woke[0] != 10 {
		t.Errorf("woke = %v, want [10]", woke)
	}
	if sig.Version() != 3 {
		t.Errorf("version = %d, want 3", sig.Version())
	}
	if sig.Waiting() != 0 {
		t.Errorf("%d waiters remain", sig.Waiting())
	}
}

// TestSignalWakeAfterWaiterRetired: a step waiter that retires after its
// wake-up must be fully detached — a later Broadcast sees zero waiters, and
// a new step process that recycles the retired frame waits and wakes
// normally.
func TestSignalWakeAfterWaiterRetired(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var wokeA, wokeB Time
	env.GoSteps("a", stepFunc(func(c *StepCtx) {
		if wokeA == 0 && c.Now() == 0 {
			c.WaitSignal(sig)
			return
		}
		wokeA = c.Now()
		c.End() // retires; its frame goes to the step free list
	}))
	env.GoSteps("driver", junctures(
		func(c *StepCtx) { c.Wait(10) },
		func(c *StepCtx) {
			sig.Broadcast()
			c.Wait(10)
		},
		func(c *StepCtx) {
			sig.Broadcast() // a already retired: must wake nobody
			// A new step process recycles a's frame and must wait cleanly.
			env.GoSteps("b", stepFunc(func(c *StepCtx) {
				if wokeB == 0 && c.Now() == 20 {
					c.WaitSignal(sig)
					return
				}
				wokeB = c.Now()
				c.End()
			}))
			c.Wait(10)
		},
		func(c *StepCtx) { sig.Broadcast() },
	))
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeA != 10 || wokeB != 30 {
		t.Errorf("wake times a=%v b=%v, want 10/30", wokeA, wokeB)
	}
	if env.live != 0 {
		t.Errorf("Live = %d, want 0", env.live)
	}
}

// TestStepFrameRecycled asserts retirement actually feeds the spawn pool:
// sequential step processes reuse one frame instead of allocating, and
// Env.Reset drops the recycled frames without breaking the next run.
func TestStepFrameRecycled(t *testing.T) {
	env := NewEnv()
	env.GoSteps("a", &waitLoop{n: 1})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(env.freeStep) != 1 {
		t.Fatalf("step free list has %d frames, want 1", len(env.freeStep))
	}
	recycled := env.freeStep[0]
	p := env.GoSteps("b", &waitLoop{n: 1})
	if p != recycled {
		t.Error("second spawn did not reuse the retired frame")
	}
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}

	env.Reset()
	if env.freeStep != nil {
		t.Errorf("Reset kept %d step frames, want none", len(env.freeStep))
	}
	env.GoSteps("c", &waitLoop{n: 7})
	end, err := env.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 7 || env.live != 0 || env.blocked != 0 {
		t.Errorf("end/Live/Blocked = %v/%d/%d after Reset and Run, want 7/0/0",
			end, env.live, env.blocked)
	}
}

// TestStepDeadlockDetection: a step process stuck on a Signal is reported
// by Run, and stays counted as blocked.
func TestStepDeadlockDetection(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	env.GoSteps("stuck", stepFunc(func(c *StepCtx) { c.WaitSignal(sig) }))
	if _, err := env.Run(); err == nil {
		t.Error("Run did not report the stuck step process")
	}
	if env.blocked != 1 {
		t.Errorf("Blocked = %d, want 1", env.blocked)
	}
}

// TestStepNoProgressPanics: a Step call that neither pushes an op, parks,
// nor ends would spin the scheduler forever and must panic instead.
func TestStepNoProgressPanics(t *testing.T) {
	env := NewEnv()
	env.GoSteps("idle", stepFunc(func(c *StepCtx) {}))
	defer func() {
		if recover() == nil {
			t.Error("no-progress step process did not panic")
		}
	}()
	_, _ = env.Run()
}

// TestStepWaitSignalAfterOpsPanics: WaitSignal must be a juncture's only
// primitive — the process becomes a waiter immediately, which cannot be
// sequenced after queued ops.
func TestStepWaitSignalAfterOpsPanics(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	env.GoSteps("bad", stepFunc(func(c *StepCtx) {
		c.Wait(1)
		c.WaitSignal(sig)
	}))
	defer func() {
		if recover() == nil {
			t.Error("WaitSignal after queued ops did not panic")
		}
	}()
	_, _ = env.Run()
}

// TestStepOpOverflowPanics: the fixed op ring must reject a juncture that
// queues more primitives than it holds.
func TestStepOpOverflowPanics(t *testing.T) {
	env := NewEnv()
	env.GoSteps("bad", stepFunc(func(c *StepCtx) {
		for i := 0; i < 9; i++ {
			c.Wait(1)
		}
	}))
	defer func() {
		if recover() == nil {
			t.Error("op-queue overflow did not panic")
		}
	}()
	_, _ = env.Run()
}
