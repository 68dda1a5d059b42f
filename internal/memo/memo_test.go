package memo

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestKeyWriterDistinguishesInputs(t *testing.T) {
	base := func() *KeyWriter { return NewKey("w") }
	k0 := base().Int(1).Int(2).Key()
	cases := map[string]Key{
		"different ints":    base().Int(1).Int(3).Key(),
		"swapped order":     base().Int(2).Int(1).Key(),
		"string boundary":   NewKey("w1").Str("2").Key(),
		"float vs int bits": base().Int(1).Float(2).Key(),
	}
	for name, k := range cases {
		if k == k0 {
			t.Errorf("%s: key collision with base", name)
		}
	}
	if NewKey("w").Str("ab").Str("c").Key() == NewKey("w").Str("a").Str("bc").Key() {
		t.Error("length delimiting failed: ab+c == a+bc")
	}
	if base().Int(1).Int(2).Key() != k0 {
		t.Error("key not deterministic")
	}
}

func TestKeyFloatIsBitExact(t *testing.T) {
	a := NewKey("w").Float(1.0).Key()
	b := NewKey("w").Float(math.Nextafter(1.0, 2.0)).Key()
	if a == b {
		t.Error("adjacent float bit patterns must produce distinct keys")
	}
}

type payload struct {
	Name string
	Vals []float64
	N    int
}

func TestMemoryRoundTrip(t *testing.T) {
	c := NewMemory()
	k := NewKey("t").Int(1).Key()
	want := payload{Name: "x", Vals: []float64{1.5, 2.5, math.Pi}, N: 7}
	if _, ok := Lookup[payload](c, k); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	Store(c, k, want)
	got, ok := Lookup[payload](c, k)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v ok=%v want %+v", got, ok, want)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.Stores != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 store", s)
	}
}

func TestNilCacheIsNoOp(t *testing.T) {
	var c *Cache
	k := NewKey("t").Key()
	Store(c, k, 42)
	if _, ok := Lookup[int](c, k); ok {
		t.Error("nil cache must miss")
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("nil cache stats = %+v", s)
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	k := NewKey("t").Int(9).Key()
	c1, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	Store(c1, k, []float64{3.25, 4.5})

	// A fresh cache over the same directory serves the entry from disk.
	c2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := Lookup[[]float64](c2, k)
	if !ok || !reflect.DeepEqual(got, []float64{3.25, 4.5}) {
		t.Fatalf("disk round trip: got %v ok=%v", got, ok)
	}
	s := c2.Stats()
	if s.DiskHits != 1 || s.Misses != 0 {
		t.Errorf("stats = %+v, want 1 disk hit and no misses", s)
	}
	// Second lookup is served from memory.
	if _, ok := Lookup[[]float64](c2, k); !ok {
		t.Fatal("memory hit after disk load failed")
	}
	if s := c2.Stats(); s.Hits != 1 {
		t.Errorf("stats = %+v, want 1 memory hit", s)
	}
}

// Two invocations sharing a cache directory may store the same key at
// the same time (two caches over one directory stand in for the two
// processes). Both writes must succeed, the entry must decode, and no
// temp file may be left behind.
func TestConcurrentStoreSameKey(t *testing.T) {
	dir := t.TempDir()
	want := make([]float64, 1<<15) // 256 KB, so the two writes overlap
	for i := range want {
		want[i] = float64(i)
	}
	for round := 0; round < 20; round++ {
		k := NewKey("race").Int(round).Key()
		var caches [2]*Cache
		for i := range caches {
			c, err := New(dir)
			if err != nil {
				t.Fatal(err)
			}
			caches[i] = c
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for _, c := range caches {
			wg.Add(1)
			go func(c *Cache) {
				defer wg.Done()
				<-start
				Store(c, k, want)
			}(c)
		}
		close(start)
		wg.Wait()
		for i, c := range caches {
			if s := c.Stats(); s.Stores != 1 || s.WriteErrs != 0 {
				t.Fatalf("round %d: cache %d stats = %+v, want 1 store and no write errors", round, i, s)
			}
		}
		fresh, err := New(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := Lookup[[]float64](fresh, k)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: entry did not decode to the stored value (ok=%v)", round, ok)
		}
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		if !strings.HasSuffix(e.Name(), ".memo") {
			t.Errorf("left behind %s", e.Name())
		}
	}
}

func TestCorruptEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("t").Key()
	if err := os.WriteFile(filepath.Join(dir, c.pathBase(k)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := Lookup[payload](c, k); ok {
		t.Fatal("corrupt entry must not decode")
	}
	if s := c.Stats(); s.DecodeErrs != 1 {
		t.Errorf("stats = %+v, want 1 decode error", s)
	}
}

// pathBase exposes the entry file name for the corruption test.
func (c *Cache) pathBase(k Key) string { return filepath.Base(c.path(k)) }
