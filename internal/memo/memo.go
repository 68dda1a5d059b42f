// Package memo is a content-addressed result cache for deterministic
// sweeps. Every evaluation artifact in this repository is a pure function
// of explicit inputs — machine configuration, protocol timing constants,
// seeds and measurement options — so a sweep's result can be stored under
// a digest of those inputs and returned on the next run without touching
// the simulator. The cache is two-level: an in-process map for repeated
// sweeps within one invocation (Table II re-measures the same latency
// sweep per kernel, for example) and an optional on-disk directory
// (results/.memocache/ by convention) so repeated binary invocations with
// -cache are served from disk.
//
// Correctness rests on the key discipline, not on the cache: a key must
// fold every input that can change the result (KeyWriter makes the folds
// explicit), plus VersionSalt, which must be bumped whenever measurement
// semantics change so stale entries can never be replayed across code
// versions.
package memo

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// VersionSalt invalidates every previously stored entry when the meaning
// of a measurement changes. Bump the suffix on any semantic change to the
// simulator, the measurement kernels, or the key scheme itself.
const VersionSalt = "knlcap-memo-v1"

// Key is the 128-bit content address of one sweep result (two independent
// FNV-1a 64 lanes; the pair makes accidental collisions across the few
// thousand keys a repository ever produces implausible).
type Key struct{ A, B uint64 }

const (
	fnvOffset  = 14695981039346656037
	fnvOffset2 = fnvOffset ^ 0x9e3779b97f4a7c15
	fnvPrime   = 1099511628211
)

// KeyWriter folds typed inputs into a Key. The fold methods chain so key
// construction reads as a declaration of what the result depends on.
type KeyWriter struct{ a, b uint64 }

// NewKey starts a key with the version salt and a workload identifier.
func NewKey(workload string) *KeyWriter {
	w := &KeyWriter{a: fnvOffset, b: fnvOffset2}
	return w.Str(VersionSalt).Str(workload)
}

func (w *KeyWriter) fold(c byte) {
	w.a = (w.a ^ uint64(c)) * fnvPrime
	w.b = (w.b ^ uint64(c)) * fnvPrime
}

// Uint folds 8 bytes.
func (w *KeyWriter) Uint(v uint64) *KeyWriter {
	for i := 0; i < 8; i++ {
		w.fold(byte(v >> (8 * i)))
	}
	return w
}

// Int folds an integer.
func (w *KeyWriter) Int(v int) *KeyWriter { return w.Uint(uint64(v)) }

// Float folds the IEEE-754 bit pattern, so the fold is exact (no
// formatting round-trip).
func (w *KeyWriter) Float(v float64) *KeyWriter { return w.Uint(math.Float64bits(v)) }

// Bool folds a flag.
func (w *KeyWriter) Bool(v bool) *KeyWriter {
	if v {
		return w.Uint(1)
	}
	return w.Uint(0)
}

// Str folds a length-delimited string (delimiting keeps "ab"+"c" and
// "a"+"bc" distinct).
func (w *KeyWriter) Str(s string) *KeyWriter {
	w.Uint(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		w.fold(s[i])
	}
	return w
}

// Ints folds a length-delimited int slice.
func (w *KeyWriter) Ints(vs []int) *KeyWriter {
	w.Uint(uint64(len(vs)))
	for _, v := range vs {
		w.Int(v)
	}
	return w
}

// Key finalizes the digest.
func (w *KeyWriter) Key() Key { return Key{A: w.a, B: w.b} }

// Stats counts cache traffic; read them via Cache.Stats.
type Stats struct {
	Hits       uint64 // in-memory hits
	DiskHits   uint64 // entries loaded from the cache directory
	Misses     uint64
	Stores     uint64
	WriteErrs  uint64 // failed disk writes (entry still cached in memory)
	DecodeErrs uint64 // undecodable entries treated as misses
}

// String renders the counters for the cmd tools' stderr summary line.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d disk-hits=%d misses=%d stores=%d write-errs=%d decode-errs=%d",
		s.Hits, s.DiskHits, s.Misses, s.Stores, s.WriteErrs, s.DecodeErrs)
}

// Cache is a two-level (memory + optional disk) result store. The zero
// value is not usable; construct with New or NewMemory. A nil *Cache is a
// valid no-op target for Lookup and Store, so callers thread an optional
// cache without branching.
type Cache struct {
	mu    sync.Mutex
	mem   map[Key][]byte
	dir   string
	stats Stats
}

// NewMemory returns an in-process cache with no disk level.
func NewMemory() *Cache { return &Cache{mem: map[Key][]byte{}} }

// New returns a cache backed by dir (created if missing). Entries are one
// file per key, written atomically, so concurrent invocations sharing a
// directory see either a complete entry or none.
func New(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("memo: %w", err)
	}
	return &Cache{mem: map[Key][]byte{}, dir: dir}, nil
}

func (c *Cache) path(k Key) string {
	return filepath.Join(c.dir, fmt.Sprintf("%016x%016x.memo", k.A, k.B))
}

// lookupMem is the warm-sweep fast path: a repeated invocation must answer
// from here without simulating or allocating.
//
//knl:hotpath cache hits on repeat sweeps; the ci.sh memo gate asserts the second -cache run never simulates
func (c *Cache) lookupMem(k Key) ([]byte, bool) {
	c.mu.Lock()
	b, ok := c.mem[k]
	if ok {
		c.stats.Hits++
	}
	c.mu.Unlock()
	return b, ok
}

// Get returns the stored bytes for k, consulting memory first and then the
// disk level (populating memory on a disk hit).
func (c *Cache) Get(k Key) ([]byte, bool) {
	if b, ok := c.lookupMem(k); ok {
		return b, true
	}
	if c.dir != "" {
		if b, err := os.ReadFile(c.path(k)); err == nil {
			c.mu.Lock()
			c.mem[k] = b
			c.stats.DiskHits++
			c.mu.Unlock()
			return b, true
		}
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return nil, false
}

// Put stores data under k in memory and, when a directory is configured,
// on disk. A failed disk write only degrades the cache to memory-only for
// that entry (counted in Stats.WriteErrs); it never fails the measurement.
func (c *Cache) Put(k Key, data []byte) {
	c.mu.Lock()
	if _, dup := c.mem[k]; dup {
		c.mu.Unlock()
		return
	}
	c.mem[k] = data
	c.stats.Stores++
	dir := c.dir
	c.mu.Unlock()
	if dir == "" {
		return
	}
	if err := writeAtomic(c.path(k), data); err != nil {
		c.mu.Lock()
		c.stats.WriteErrs++
		c.mu.Unlock()
	}
}

// writeAtomic writes via a temp file and rename, so a reader never
// observes a torn entry. The temp file has a unique name in the entry's
// directory, so concurrent writers of the same key never share one; the
// last rename wins, and every writer renames a complete entry.
func writeAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	// CreateTemp makes the file 0600; entries keep the 0644 they had.
	if err = f.Chmod(0o644); err == nil {
		_, err = f.Write(data)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		if rmErr := os.Remove(f.Name()); rmErr != nil {
			return fmt.Errorf("%w (and could not remove temp: %v)", err, rmErr)
		}
		return err
	}
	return nil
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	s := c.stats
	c.mu.Unlock()
	return s
}

// Lookup decodes the cached value for k into T. A nil cache, a miss, or an
// undecodable entry (counted, treated as a miss) all return ok=false.
func Lookup[T any](c *Cache, k Key) (T, bool) {
	var zero T
	if c == nil {
		return zero, false
	}
	data, ok := c.Get(k)
	if !ok {
		return zero, false
	}
	var v T
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
		c.mu.Lock()
		c.stats.DecodeErrs++
		c.mu.Unlock()
		return zero, false
	}
	return v, true
}

// Store encodes v under k. A nil cache is a no-op. Encoding uses gob:
// float64 round-trips bit-exactly, and every cached result type in this
// repository is a concrete struct/slice of exported fields. An
// unencodable type is a programming error and panics.
func Store[T any](c *Cache, k Key, v T) {
	if c == nil {
		return
	}
	c.Put(k, encodeValue(v))
}

// encodeValue serializes a result for the cache. It is a purity root
// (DESIGN.md §7): what goes into the content-addressed store must be a
// pure function of the value, so the purity analyzer walks the call
// graph from here and forbids time/rand/os and package-level writes.
func encodeValue[T any](v T) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("memo: encode: %v", err))
	}
	return buf.Bytes()
}
