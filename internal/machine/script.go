package machine

import "knlcap/internal/memmode"

// Script builds a kernel program from straight-line code: imperative
// thread logic that interleaves memory ops with host computation
// (accumulating sums, recording observed values, reading the clock) is
// recorded as a queue of entries that the Program replays at the right
// simulated instants:
//
//   - an op entry's make closure builds the KernelOp at the instant the op
//     issues (so a value computed from an earlier op's result is
//     available); its then hook runs at the op's completion instant with
//     the op result.
//   - a host entry (Do) runs inline at the completion instant of whatever
//     preceded it, at zero simulated cost.
//
// A then hook or host entry may append further entries (the queue beyond
// it is empty at that point), which expresses result-dependent control
// flow such as the OpenMP barrier's "last arriver releases, others wait"
// branch.
type Script struct {
	ops []scriptOp
}

type scriptOp struct {
	make func() KernelOp
	then func(got uint64)
}

// OpF appends an op entry whose KernelOp is built at issue time.
func (s *Script) OpF(make func() KernelOp, then func(got uint64)) {
	s.ops = append(s.ops, scriptOp{make: make, then: then})
}

// Op appends a fully-static op entry; then (may be nil) receives the op
// result at its completion instant.
func (s *Script) Op(op KernelOp, then func(got uint64)) {
	s.ops = append(s.ops, scriptOp{make: func() KernelOp { return op }, then: then})
}

// Do appends a host action running at the preceding op's completion
// instant.
func (s *Script) Do(f func()) {
	s.ops = append(s.ops, scriptOp{then: func(uint64) { f() }})
}

// Compute advances the kernel by d ns of pure computation.
func (s *Script) Compute(d float64) {
	s.Op(KernelOp{Kind: KernelCompute, Dur: d}, nil)
}

// Load reads line li of b with full protocol timing.
func (s *Script) Load(b memmode.Buffer, li int) {
	s.Op(KernelOp{Kind: KernelLoad, B: b, Li: li}, nil)
}

// LoadWord is a load whose payload word feeds the then hook.
func (s *Script) LoadWord(b memmode.Buffer, li int, then func(got uint64)) {
	s.Op(KernelOp{Kind: KernelLoad, B: b, Li: li}, then)
}

// Store writes line li of b (read-for-ownership walk).
func (s *Script) Store(b memmode.Buffer, li int) {
	s.Op(KernelOp{Kind: KernelStore, B: b, Li: li}, nil)
}

// StoreNT writes line li of b with a non-temporal store.
func (s *Script) StoreNT(b memmode.Buffer, li int) {
	s.Op(KernelOp{Kind: KernelStoreNT, B: b, Li: li}, nil)
}

// StoreWord stores line li of b and sets its payload to v.
func (s *Script) StoreWord(b memmode.Buffer, li int, v uint64) {
	s.Op(KernelOp{Kind: KernelStoreWord, B: b, Li: li, Val: v}, nil)
}

// StoreWordFn defers the stored value to the issue instant (for values
// produced by earlier ops of the same script).
func (s *Script) StoreWordFn(b memmode.Buffer, li int, v func() uint64) {
	s.OpF(func() KernelOp {
		return KernelOp{Kind: KernelStoreWord, B: b, Li: li, Val: v()}
	}, nil)
}

// AddWord atomically adds delta to the payload of line li; then receives
// the new value.
func (s *Script) AddWord(b memmode.Buffer, li int, delta uint64, then func(got uint64)) {
	s.Op(KernelOp{Kind: KernelAddWord, B: b, Li: li, Val: delta}, then)
}

// WaitWordGE polls the payload of line li until it is >= v; then receives
// the observed value.
func (s *Script) WaitWordGE(b memmode.Buffer, li int, v uint64, then func(got uint64)) {
	s.Op(KernelOp{Kind: KernelWaitWordGE, B: b, Li: li, Val: v}, then)
}

// ReadStreamRange reads n lines of b starting at line from.
func (s *Script) ReadStreamRange(b memmode.Buffer, from, n int, vector bool) {
	s.Op(KernelOp{Kind: StreamRead, Src: b, SrcFrom: from, N: n, Vector: vector}, nil)
}

// CopyStreamRange copies n lines from src@srcFrom to dst@dstFrom.
func (s *Script) CopyStreamRange(dst, src memmode.Buffer, dstFrom, srcFrom, n int, nt bool) {
	s.Op(KernelOp{Kind: StreamCopy, Dst: dst, Src: src,
		DstFrom: dstFrom, SrcFrom: srcFrom, N: n, NT: nt}, nil)
}

// Program drains the script as a kernel Program.
func (s *Script) Program() Program {
	i := 0
	var pending func(uint64)
	return func(now float64, prev uint64) (KernelOp, bool) {
		if pending != nil {
			f := pending
			pending = nil
			f(prev)
		}
		for i < len(s.ops) {
			e := s.ops[i]
			i++
			if e.make == nil {
				if e.then != nil {
					e.then(0)
				}
				continue
			}
			pending = e.then
			return e.make(), true
		}
		return KernelOp{}, false
	}
}
