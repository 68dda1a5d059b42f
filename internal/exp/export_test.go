package exp

// PointSeed derives a per-point seed from a sweep-level base seed with a
// splitmix64 mix, so neighboring points of a test sweep get decorrelated
// streams while the mapping stays a pure function of (base, i). It is
// test-only: a sweep point's randomness comes from its inputs (Options.Seed
// and the configuration's YieldSeed), and exp_test's equivalence tests
// reach it through this file.
func PointSeed(base uint64, i int) uint64 {
	z := base + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
