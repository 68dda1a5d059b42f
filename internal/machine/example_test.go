package machine_test

import (
	"fmt"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
)

// A machine is built from a configuration; threads are kernel programs
// whose memory operations carry full MESIF protocol timing.
func Example() {
	p := machine.DefaultParams()
	p.JitterFrac = 0 // deterministic costs for the example
	m := machine.NewWithParams(knl.DefaultConfig(), p)

	buf := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	m.Prime(buf, 2, cache.Exclusive) // core 2 = the neighbouring tile

	// A Script records the thread's steps as a kernel program: memory ops
	// and host actions that run at the simulated instant they are reached.
	var start, remote, local float64
	s := &machine.Script{}
	s.Do(func() { start = m.Env.Now() })
	s.Load(buf, 0) // remote cache-to-cache transfer
	s.Do(func() { remote, start = m.Env.Now()-start, m.Env.Now() })
	s.Load(buf, 0) // now resident in our L1
	s.Do(func() { local = m.Env.Now() - start })
	m.SpawnKernel(knl.Place{Tile: 0, Core: 0}, s.Program())
	if _, err := m.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("remote load: %.1f ns\n", remote)
	fmt.Printf("local reload: %.1f ns\n", local)
	// Output:
	// remote load: 117.4 ns
	// local reload: 3.8 ns
}
