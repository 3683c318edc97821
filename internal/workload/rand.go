package workload

// splitmix64 is a tiny, fast, deterministic PRNG used for both page
// property hashing and per-core access streams. We avoid math/rand so
// that page→sharer assignments are pure functions of (seed, page) and
// never depend on call order.
type splitmix64 struct{ state uint64 }

func newSplitmix(seed uint64) *splitmix64 { return &splitmix64{state: seed} }

// splitmixGamma is the increment splitmix64 adds to its state per
// output.
const splitmixGamma = 0x9e3779b97f4a7c15

func (s *splitmix64) next() uint64 {
	s.state += splitmixGamma
	return splitmixOut(s.state)
}

// splitmixOut is the output at state z. The generator is counter-based:
// its i-th output (from 1) after state s0 is splitmixOut(s0 + i·gamma),
// so any draw can be evaluated without the ones before it.
func splitmixOut(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64v returns a uniform value in [0, 1).
func (s *splitmix64) float64v() float64 { return unit(s.next() >> 11) }

// unit maps a 53-bit draw k to the uniform value k/2^53 in [0, 1).
func unit(k uint64) float64 { return float64(k) / (1 << 53) }

// intn returns a uniform value in [0, n). n must be positive.
func (s *splitmix64) intn(n int) int {
	return int(s.next() % uint64(n))
}

// mix hashes an arbitrary sequence of values into a single 64-bit value;
// used to derive stable per-page and per-core seeds.
func mix(vs ...uint64) uint64 {
	h := uint64(0x8445d61a4e774912)
	for _, v := range vs {
		h ^= v
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}
