// Quickstart: build a simulated KNL, measure a few capabilities, and use
// the capability model to derive a tuned broadcast tree.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"knlcap/internal/bench"
	"knlcap/internal/cache"
	"knlcap/internal/core"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/tune"
)

func main() {
	// 1. A machine in the paper's headline configuration: SNC4 cluster
	//    mode, flat memory mode.
	cfg := knl.DefaultConfig()
	m := machine.New(cfg)
	fmt.Printf("simulated %s: %d tiles, %d cores\n", cfg.Name(), m.NumTiles(), m.NumCores())

	// 2. Measure one capability directly: the latency of reading a line
	//    that another core holds in Modified state.
	buf := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	m.Prime(buf, 20, cache.Modified) // core 20 = tile 10
	//    A Script records the thread's steps; SpawnKernel pins the
	//    resulting program to core 0.
	var start, latency float64
	s := &machine.Script{}
	s.Do(func() { start = m.Env.Now() })
	s.Load(buf, 0)
	s.Do(func() { latency = m.Env.Now() - start })
	m.SpawnKernel(knl.Place{Tile: 0, Core: 0}, s.Program())
	if _, err := m.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("remote M-state cache-to-cache load: %.0f ns (paper: 107-122)\n", latency)

	// 3. Run a piece of the benchmark suite and fit a capability model.
	o := bench.DefaultOptions().Quick()
	t1 := bench.MeasureTableI(cfg, o)
	fmt.Printf("fitted contention model: T_C(N) = %.0f + %.1f*N ns (paper: 200 + 34N)\n",
		t1.Contention.Alpha, t1.Contention.Beta)

	// 4. Model-tune a broadcast tree for 32 tiles and compare with a
	//    binomial tree.
	model := core.Default()
	tuned := tune.Broadcast(model, 32)
	binomial := model.BroadcastCost(core.BinomialTree(32))
	fmt.Printf("tuned broadcast tree: %s\n", tuned.Tree)
	fmt.Printf("predicted cost: %.0f ns vs binomial %.0f ns (%.2fx better)\n",
		tuned.CostNs, binomial, binomial/tuned.CostNs)
}
