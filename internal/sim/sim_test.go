package sim

import (
	"errors"
	"testing"
	"testing/quick"
)

// junctures returns a step process body that runs fns as successive
// junctures — a function that queues no primitive falls through to the
// next one in the same juncture — and ends after the last.
func junctures(fns ...func(c *StepCtx)) stepFunc {
	i := 0
	return func(c *StepCtx) {
		for i < len(fns) {
			i++
			fns[i-1](c)
			if c.Blocked() {
				return
			}
		}
		c.End()
	}
}

// repeat returns a step process body that runs fn as n successive
// junctures and then ends.
func repeat(n int, fn func(c *StepCtx)) stepFunc {
	return func(c *StepCtx) {
		if n == 0 {
			c.End()
			return
		}
		n--
		fn(c)
	}
}

func TestWaitAdvancesTime(t *testing.T) {
	env := NewEnv()
	var at Time
	env.GoSteps("a", junctures(
		func(c *StepCtx) { c.Wait(10) },
		func(c *StepCtx) { c.Wait(5.5) },
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

func TestFIFOOrderAtSameTime(t *testing.T) {
	env := NewEnv()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		env.GoSteps(name, junctures(
			func(c *StepCtx) { c.Wait(7) },
			func(c *StepCtx) { order = append(order, name) },
		))
	}
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("order = %v, want [a b c]", order)
	}
}

// TestGoAtAndWaitUntil covers the absolute-time edges of GoStepsAt and
// WaitUntil: a WaitUntil to the current instant costs no time, and a spawn
// or a WaitUntil in the past panics.
func TestGoAtAndWaitUntil(t *testing.T) {
	env := NewEnv()
	var at Time = -1
	env.GoStepsAt(20, "p", junctures(
		func(c *StepCtx) { c.WaitUntil(20) },
		func(c *StepCtx) { at = c.Now() },
	))
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 20 {
		t.Errorf("WaitUntil(now) resumed at %v, want 20", at)
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("GoStepsAt in the past", func() {
		env.GoStepsAt(10, "late", stepFunc(func(c *StepCtx) { c.End() }))
	})
	mustPanic("WaitUntil in the past", func() {
		env.GoSteps("back", stepFunc(func(c *StepCtx) { c.WaitUntil(5) }))
		_, _ = env.Run()
	})
}

func TestNegativeWaitPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(c *StepCtx, r *Resource)
	}{
		{"Wait", func(c *StepCtx, r *Resource) { c.Wait(-1) }},
		{"Use", func(c *StepCtx, r *Resource) { c.Use(r, -1) }},
	} {
		env := NewEnv()
		r := NewResource(env, "r", 1)
		env.GoSteps("bad", stepFunc(func(c *StepCtx) { tc.bad(c, r) }))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(-1) did not panic", tc.name)
				}
			}()
			_, _ = env.Run()
		}()
	}
}

func TestSpawnFromProcess(t *testing.T) {
	env := NewEnv()
	var childTime Time
	env.GoSteps("parent", junctures(
		func(c *StepCtx) { c.Wait(10) },
		func(c *StepCtx) {
			env.GoSteps("child", junctures(
				func(c *StepCtx) { c.Wait(5) },
				func(c *StepCtx) { childTime = c.Now() },
			))
			c.Wait(100)
		},
	))
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 15 {
		t.Errorf("child finished at %v, want 15", childTime)
	}
}

// useThenRecord spawns n processes that each hold res for d and then
// record their finish time.
func useThenRecord(env *Env, res *Resource, n int, d Time) *[]Time {
	var finish []Time
	for i := 0; i < n; i++ {
		env.GoSteps("t", junctures(
			func(c *StepCtx) { c.Use(res, d) },
			func(c *StepCtx) { finish = append(finish, c.Now()) },
		))
	}
	return &finish
}

func TestResourceSerializes(t *testing.T) {
	env := NewEnv()
	finish := useThenRecord(env, NewResource(env, "cha", 1), 4, 10)
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 20, 30, 40}
	for i, w := range want {
		if (*finish)[i] != w {
			t.Errorf("finish[%d] = %v, want %v", i, (*finish)[i], w)
		}
	}
}

func TestResourceCapacity2(t *testing.T) {
	env := NewEnv()
	finish := useThenRecord(env, NewResource(env, "port", 2), 4, 10)
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 10, 20, 20}
	for i, w := range want {
		if (*finish)[i] != w {
			t.Errorf("finish[%d] = %v, want %v", i, (*finish)[i], w)
		}
	}
}

func TestResourceFIFOFairness(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.GoStepsAt(Time(i), "t", junctures(
			func(c *StepCtx) {
				c.Acquire(res)
				c.Wait(100)
			},
			func(c *StepCtx) {
				order = append(order, i)
				res.Release()
			},
		))
	}
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Errorf("service order %v not FIFO", order)
			break
		}
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	defer func() {
		if recover() == nil {
			t.Error("Release of idle resource did not panic")
		}
	}()
	res.Release()
}

func TestResourceUtilization(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	env.GoSteps("t", junctures(func(c *StepCtx) {
		c.Wait(50)
		c.Use(res, 50)
	}))
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if u := res.Utilization(); u < 0.49 || u > 0.51 {
		t.Errorf("utilization = %v, want ~0.5", u)
	}
}

func TestSignalBroadcast(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var woke []Time
	for i := 0; i < 3; i++ {
		env.GoSteps("waiter", junctures(
			func(c *StepCtx) { c.WaitSignal(sig) },
			func(c *StepCtx) { woke = append(woke, c.Now()) },
		))
	}
	env.GoSteps("setter", junctures(
		func(c *StepCtx) { c.Wait(42) },
		func(c *StepCtx) { sig.Broadcast() },
	))
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, w := range woke {
		if w != 42 {
			t.Errorf("waiter woke at %v, want 42", w)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	env.GoSteps("stuck", stepFunc(func(c *StepCtx) { c.WaitSignal(sig) }))
	_, err := env.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("err = %v, want ErrDeadlock", err)
	}
	if env.blocked != 1 {
		t.Errorf("Blocked = %d, want 1", env.blocked)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		env := NewEnv()
		res := NewResource(env, "r", 2)
		sig := NewSignal(env)
		var log []Time
		for i := 0; i < 8; i++ {
			i := i
			env.GoStepsAt(Time(i%3), "w", junctures(
				func(c *StepCtx) { c.Use(res, Time(5+i)) },
				func(c *StepCtx) {
					log = append(log, c.Now())
					if i == 7 {
						sig.Broadcast()
					} else if i < 3 {
						c.WaitSignal(sig)
					}
				},
				func(c *StepCtx) {
					if i < 3 {
						log = append(log, c.Now())
					}
				},
			))
		}
		// The scenario deliberately strands one waiter past the final
		// broadcast; Run reports that as a deadlock. Only the identical
		// wakeup order across the two runs is under test.
		_, _ = env.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for capacity-1 resources, total completion time of n jobs of
// duration d is exactly n*d regardless of spawn pattern (work conservation).
func TestResourceWorkConservation(t *testing.T) {
	f := func(seed uint64) bool {
		n := 1 + int(seed%10)
		env := NewEnv()
		res := NewResource(env, "r", 1)
		for i := 0; i < n; i++ {
			env.GoStepsAt(Time(seed%3), "t", junctures(func(c *StepCtx) { c.Use(res, 10) }))
		}
		end, err := env.Run()
		return err == nil && end == Time(seed%3)+Time(n)*10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestManyProcessesStress(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 4)
	count := 0
	const n = 2000
	for i := 0; i < n; i++ {
		uses := 0
		env.GoSteps("t", stepFunc(func(c *StepCtx) {
			if uses == 5 {
				count++
				c.End()
				return
			}
			uses++
			c.Use(res, 1)
		}))
	}
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Errorf("finished %d, want %d", count, n)
	}
	if env.live != 0 {
		t.Errorf("Live = %d, want 0", env.live)
	}
	// 10000 unit-time jobs over capacity 4 => 2500 time units.
	if env.Now() != 2500 {
		t.Errorf("end time = %v, want 2500", env.Now())
	}
}

// Engine micro-benchmarks: the resource costs bound how large a simulated
// experiment can be.
func BenchmarkResourceUse(b *testing.B) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	env.GoSteps("w", repeat(b.N, func(c *StepCtx) { c.Use(res, 1) }))
	b.ResetTimer()
	if _, err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkContendedResource(b *testing.B) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	const workers = 8
	for w := 0; w < workers; w++ {
		env.GoSteps("w", repeat(b.N/workers, func(c *StepCtx) { c.Use(res, 1) }))
	}
	b.ResetTimer()
	if _, err := env.Run(); err != nil {
		b.Fatal(err)
	}
}
