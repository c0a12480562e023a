package sim

// The engine's random source reproduces rand.NewSource(seed) draw for draw
// without paying for its seeding. math/rand seeds its 607-word register by
// running the Park–Miller generator x_{k+1} = 48271·x_k mod (2^31−1) three
// times per word, after 20 warm-up steps: 1841 modular steps and a 4.9 KB
// register per seed, for an n=2 timelock sub-run that then draws 32
// values. Two facts make that work avoidable:
//
//   - The chain has the closed form x_k = seed·48271^k mod (2^31−1), so
//     register word i, built from x_{21+3i}, x_{22+3i} and x_{23+3i}, can
//     be computed alone from a precomputed power table (seedWord).
//   - Draw k (k = 1, 2, ...) adds words 334−k and 607−k and stores the sum
//     in word 334−k. Until draw 273 every word it reads is still as seeded,
//     so the first 273 draws need no register at all: each is the sum of
//     two seeded words.
//
// The register is built only on draw 274, from the seeded words plus the
// sums the earlier draws stored.

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// parkMiller is the multiplier of math/rand's seeding chain.
	parkMiller = 48271
	// rngSeedFallback replaces a seed that is 0 modulo 2^31−1, as
	// math/rand does.
	rngSeedFallback = 89482311
)

// rngSeedPow[i] = 48271^(21+3i) mod (2^31−1): the factor that takes a
// normalised seed to the first of register word i's three chain values.
var rngSeedPow = func() (pow [rngLen]uint64) {
	p := uint64(1)
	for k := 0; k < 21; k++ {
		p = p * parkMiller % int32max
	}
	for i := range pow {
		pow[i] = p
		p = p * parkMiller % int32max
		p = p * parkMiller % int32max
		p = p * parkMiller % int32max
	}
	return pow
}()

// seedWord returns register word i as math/rand seeds it from the
// normalised seed.
func seedWord(seed uint64, i int) int64 {
	x := seed * rngSeedPow[i] % int32max
	u := int64(x) << 40
	x = x * parkMiller % int32max
	u ^= int64(x) << 20
	x = x * parkMiller % int32max
	u ^= int64(x)
	return u ^ rngCooked[i]
}

// lazySource is a math/rand Source64 whose output equals that of
// rand.NewSource with the same seed. It serves the first rngTap draws
// straight from seedWord and builds the register only past them.
type lazySource struct {
	seed  uint64 // normalised to [1, 2^31−2]
	drawn int    // draws served before the register was built
	live  bool   // reg holds the generator state; tap and feed index it
	tap   int
	feed  int
	reg   *[rngLen]int64 // kept across Seed for reuse
}

// Seed resets the source to the stream rand.NewSource(seed) produces.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = rngSeedFallback
	}
	s.seed = uint64(seed)
	s.drawn = 0
	s.live = false
}

// Uint64 returns the next 64-bit value of the additive lagged Fibonacci
// generator, exactly as math/rand's source steps it.
func (s *lazySource) Uint64() uint64 {
	if !s.live {
		if s.drawn < rngTap {
			s.drawn++
			return uint64(seedWord(s.seed, rngLen-rngTap-s.drawn) + seedWord(s.seed, rngLen-s.drawn))
		}
		s.build()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.reg[s.feed] + s.reg[s.tap]
	s.reg[s.feed] = x
	return uint64(x)
}

// build materialises the register as it stands after the draws served so
// far: the seeded words, with draw k's sum stored in word 334−k.
func (s *lazySource) build() {
	if s.reg == nil {
		s.reg = new([rngLen]int64)
	}
	for i := range s.reg {
		s.reg[i] = seedWord(s.seed, i)
	}
	for k := 1; k <= s.drawn; k++ {
		s.reg[rngLen-rngTap-k] += s.reg[rngLen-k]
	}
	s.tap = rngLen - s.drawn
	s.feed = rngLen - rngTap - s.drawn
	s.live = true
}

// Int63 returns a non-negative 63-bit value.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
