package main

// The benchmark's own input generator. It is deliberately not
// internal/xrand: a change to the program's random sources must never
// change the requests the benchmark sends, or two commits would be
// measured on different inputs.

// golden is splitmix64's increment (2^64 / φ, odd).
const golden = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer, a bijection on uint64.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// fmix32 is the murmur3 32-bit finalizer, a bijection on uint32.
func fmix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// splitmix is a splitmix64 stream.
type splitmix struct{ s uint64 }

// streamFor returns the stream of request i in a run seeded with seed.
// salt separates the independent uses of one (seed, i) pair. Each
// request draws from its own stream, so request i is the same whatever
// order the clients take requests in.
func streamFor(seed int64, salt uint64, i int64) splitmix {
	return splitmix{s: mix64(uint64(seed)^salt) + uint64(i)*golden}
}

func (r *splitmix) next() uint64 {
	r.s += golden
	return mix64(r.s)
}

// intn returns a value in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// int63 returns a non-negative int64.
func (r *splitmix) int63() int64 { return int64(r.next() >> 1) }
