package exp_test

import (
	"fmt"
	"testing"

	"knlcap/internal/exp"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
)

// TestProcessPanicPropagation: a panic raised inside a simulated process —
// a kernel Program callback, which Machine.Run advances inline on the
// point's worker goroutine — reaches the caller of exp.Run as a re-raised
// panic, and when several points panic it is always the lowest-index
// one's, at every worker count.
func TestProcessPanicPropagation(t *testing.T) {
	const want = "point 5: flag word 1 is odd"
	for _, par := range []int{1, 4} {
		for rep := 0; rep < 3; rep++ {
			func() {
				defer func() {
					if r := recover(); r != want {
						t.Fatalf("parallel=%d rep %d: recovered %v, want %q", par, rep, r, want)
					}
				}()
				exp.Run(par, 16, func(_ *exp.MachinePool, i int) int {
					m := machine.New(knl.DefaultConfig())
					flag := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
					m.PokeWord(flag, 0, uint64(i%2))
					s := &machine.Script{}
					s.LoadWord(flag, 0, func(got uint64) {
						if i >= 5 && got%2 == 1 {
							panic(fmt.Sprintf("point %d: flag word %d is odd", i, got))
						}
					})
					m.SpawnKernel(knl.Place{}, s.Program())
					if _, err := m.Run(); err != nil {
						panic(err)
					}
					return i
				})
			}()
		}
	}
}
