package main

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"strconv"
)

// newRand returns the generator for one input stream. Every stream of a
// run derives from the run's seed and a fixed stream number, so the same
// seed always yields the same keys, values and op streams.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9E3779B97F4A7C15^stream))
}

// permutation returns a seeded shuffle of 1..n. Popularity ranks map
// through it, so the hottest keys are spread over the key space instead
// of bunching in the first partition of the ordered store.
func permutation(r *rand.Rand, n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i + 1)
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// zipf draws ranks 0..n-1 with P(rank i) proportional to 1/(i+1)^theta,
// by Gray et al.'s method (the YCSB generator), which, unlike
// math/rand's Zipf, allows theta < 1.
type zipf struct {
	n                        float64
	theta, alpha, zetan, eta float64
	half                     float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(m int) float64 {
		s := 0.0
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) rank(r *rand.Rand) int {
	u := r.Float64()
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < z.half:
		return 1
	}
	i := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	return min(i, int(z.n)-1)
}

// hotspot draws key indexes 0..n-1 the YCSB hotspot way: hotOpPct% of
// draws go uniformly to the first hotKeyPct% of the (already permuted)
// population, the rest uniformly to the remainder.
type hotspot struct {
	n, hot   int
	hotShare float64
}

func (h hotspot) draw(r *rand.Rand) int {
	if r.Float64() < h.hotShare {
		return r.IntN(h.hot)
	}
	return h.hot + r.IntN(h.n-h.hot)
}

// Op kinds. Every workload reports latency by kind; a wire-pipe64
// request carries 64 keys of one kind.
const (
	opGet = iota
	opSet
	opSetEX
	opDel
	opScan
	nKinds
)

// pickKind maps a uniform draw in [0,100) onto a mix given as
// cumulative percentages per kind.
func pickKind(r *rand.Rand, mix [nKinds]int) uint8 {
	d := r.IntN(100)
	acc := 0
	for k, pct := range mix {
		acc += pct
		if d < acc {
			return uint8(k)
		}
	}
	panic("perfbench: op mix does not sum to 100")
}

// Writers are the generator goroutines, ids 0..workers-1, and the
// prefill, id prefillID.
const (
	prefillID = workers
	writers   = workers + 1
)

// Wire values. Each SET writes wireValue(key, writer), so a GET hit
// whose value does not decode to the requested key is a wrong answer: a
// hash alias, a torn or mis-framed reply, or a slot recycled to another
// key.
func wireValue(key uint64, writer int) uint64 { return key<<8 | uint64(writer) }

func wireValueOK(key, val uint64) bool {
	return val>>8 == key && val&0xff < writers
}

// strValues holds the string values of one writer for keys 0..n-1 in a
// single backing string: the value of key i is the slice starting at
// record i, and record j is the 8-byte little-endian word j<<8|writer.
// Values therefore overlap in memory (the store keeps only the string
// header, so nothing is copied), yet each one names its key in its first
// record and its length, and its last record names key+len/8-1: a value
// served for the wrong key, cut short or spliced fails ok.
type strValues struct {
	buf    string
	writer int
	minLen int
	steps  int // lengths are minLen + 8*[0, steps)
}

func newStrValues(n, writer, minLen, maxLen int) *strValues {
	steps := (maxLen-minLen)/8 + 1
	recs := n + maxLen/8
	b := make([]byte, 8*recs)
	for j := 0; j < recs; j++ {
		binary.LittleEndian.PutUint64(b[8*j:], uint64(j)<<8|uint64(writer))
	}
	return &strValues{buf: string(b), writer: writer, minLen: minLen, steps: steps}
}

// valueLen is the length of key i's value, the same for every writer.
func (v *strValues) valueLen(i int) int {
	return v.minLen + 8*int(uint32(i)*2654435761%uint32(v.steps))
}

func (v *strValues) value(i int) string { return v.buf[8*i : 8*i+v.valueLen(i)] }

// ok reports whether val is a value some writer wrote for key index i
// under the layout of v (all writers share the layout).
func (v *strValues) ok(i int, val string) bool {
	n := v.valueLen(i)
	if len(val) != n {
		return false
	}
	first := binary.LittleEndian.Uint64([]byte(val[:8]))
	last := binary.LittleEndian.Uint64([]byte(val[n-8:]))
	w := first & 0xff
	return first>>8 == uint64(i) && w < writers && last == uint64(i+n/8-1)<<8|w
}

// decimalKeys renders prefix+i for i in 0..n-1 as strings sliced out of
// one backing string, so a million keys cost one allocation.
func decimalKeys(n int, prefix string) []string {
	var b []byte
	ends := make([]int, n)
	for i := 0; i < n; i++ {
		b = append(b, prefix...)
		b = strconv.AppendUint(b, uint64(i), 10)
		ends[i] = len(b)
	}
	s := string(b)
	keys := make([]string, n)
	start := 0
	for i, e := range ends {
		keys[i] = s[start:e]
		start = e
	}
	return keys
}
