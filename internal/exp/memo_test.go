package exp

import (
	"reflect"
	"testing"

	"knlcap/internal/memo"
)

// TestRunMemoShortCircuits checks the wrapper's three behaviours: a cold
// sweep runs every point and stores, a warm sweep returns the cached slice
// without invoking the point function, and a nil cache degrades to a plain
// run.
func TestRunMemoShortCircuits(t *testing.T) {
	c := memo.NewMemory()
	key := memo.NewKey("test-sweep").Int(7).Key()
	calls := 0
	point := func(_ *MachinePool, i int) int { calls++; return i * 3 }

	cold := RunMemo(1, c, key, 5, point)
	if calls != 5 {
		t.Fatalf("cold run: calls=%d", calls)
	}
	warm := RunMemo(1, c, key, 5, point)
	if calls != 5 {
		t.Fatalf("warm run re-simulated: calls=%d", calls)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm %v != cold %v", warm, cold)
	}
	if got := RunMemo(1, nil, key, 2, point); len(got) != 2 || calls != 7 {
		t.Fatalf("nil cache: got %v, calls=%d", got, calls)
	}
}
