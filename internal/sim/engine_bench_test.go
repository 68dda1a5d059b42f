package sim

import "testing"

// waitLoop is the benchmark step process: one Wait(1) per juncture for n
// junctures.
type waitLoop struct{ n int }

func (w *waitLoop) Step(c *StepCtx) {
	if w.n == 0 {
		c.End()
		return
	}
	w.n--
	c.Wait(1)
}

// BenchmarkEngineEventThroughput measures the steady-state per-event cost
// of the scheduler on its hot path: four step processes each execute b.N
// Wait(1) junctures, so one benchmark op covers four event dispatches
// (schedule + heap pop + inline advance). Step processes are the machine
// model's default execution mode, so this is the number that divides every
// sweep. The reported allocs/op must be zero in the steady state: the event
// queue is a concrete slice-backed heap, step frames are recycled, and
// nothing on the per-event path escapes to the garbage collector.
func BenchmarkEngineEventThroughput(b *testing.B) {
	env := NewEnv()
	const procs = 4
	loops := make([]waitLoop, procs)
	for w := 0; w < procs; w++ {
		loops[w].n = b.N
		env.GoSteps("w", &loops[w])
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N*procs)/s, "events/s")
		b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N*procs), "ns/event")
	}
}

// BenchmarkStepHandoff pins the minimal step-to-step dispatch: two step
// processes alternate Wait(1) junctures, so every event pops the heap and
// advances a different frame than the one that scheduled it. Like the
// throughput benchmark it must report 0 allocs/op (the ci.sh tier-2
// zero-alloc gate enforces it).
func BenchmarkStepHandoff(b *testing.B) {
	env := NewEnv()
	var a, c waitLoop
	a.n, c.n = b.N, b.N
	env.GoSteps("a", &a)
	env.GoSteps("b", &c)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N*2), "ns/event")
	}
}

// BenchmarkStepSpawnChurn measures process creation and retirement: each
// op spawns a short-lived step process, exercising the step-frame free
// list (without it every spawn allocates a fresh frame).
func BenchmarkStepSpawnChurn(b *testing.B) {
	env := NewEnv()
	var child waitLoop
	env.GoSteps("spawner", repeat(b.N, func(c *StepCtx) {
		child.n = 1
		env.GoSteps("child", &child)
		c.Wait(2)
	}))
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := env.Run(); err != nil {
		b.Fatal(err)
	}
}
