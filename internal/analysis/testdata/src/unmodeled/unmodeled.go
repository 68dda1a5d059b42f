// Package unmodeled holds one hot-path, hook-path function per Go
// construct the flow analyzers' control-flow graph does not model. Each
// construct must come back as a "lint" finding from every flow analyzer
// that builds the function's graph.
package unmodeled

// Root is both a //knl:hotpath root and a configured purity root.
//
//knl:hotpath fixture root
func Root(v int, a chan int) int {
	return withGoto(v) + withLabel(v) + withSelect(a) + withFallthrough(v)
}

func withGoto(v int) int {
	if v > 0 {
		goto done
	}
	v++
done:
	return v
}

func withLabel(v int) int {
outer:
	for i := 0; i < v; i++ {
		for j := 0; j < i; j++ {
			if j == 3 {
				continue outer
			}
		}
	}
	return v
}

func withSelect(a chan int) int {
	select {
	case v := <-a:
		return v
	default:
		return 0
	}
}

func withFallthrough(v int) int {
	switch v {
	case 0:
		v++
		fallthrough
	case 1:
		v++
	}
	return v
}
