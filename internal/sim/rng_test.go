package sim

import (
	"math"
	"math/rand"
	"testing"
)

// equivalenceSeeds are the seeds the lazy source is checked on: the
// normalisation edge cases of math/rand's seeding (0, negatives, the
// modulus 2^31−1 and its multiples, which all fall back to the same
// stream, values near ±2^62 and the int64 extremes) plus a spread of
// arbitrary seeds.
func equivalenceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, 42, -42, rngSeedFallback,
		int32max, -int32max, 2 * int32max, -2 * int32max, 7 * int32max,
		int32max - 1, int32max + 1, -(int32max - 1), -(int32max + 1),
		1 << 31, -(1 << 31), 1 << 32, 1 << 62, -(1 << 62), 1<<62 + 1, -(1<<62 + 1),
		(1 << 62) / int32max * int32max, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	r := rand.New(rand.NewSource(20240601))
	for len(seeds) < 320 {
		s := r.Int63()
		if len(seeds)%2 == 0 {
			s = -s
		}
		if len(seeds)%5 == 0 {
			s >>= uint(r.Intn(62))
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// equivalenceDraws covers several wraps of the 607-word register.
const equivalenceDraws = 3200

// TestLazySourceMatchesMathRand checks the raw stream: every Uint64 and
// Int63 of the lazily seeded source equals math/rand's for the same seed.
func TestLazySourceMatchesMathRand(t *testing.T) {
	for _, seed := range equivalenceSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		var got lazySource
		got.Seed(seed)
		for i := 0; i < equivalenceDraws; i++ {
			if i%3 == 2 {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 = %d, math/rand gives %d", seed, i, g, w)
				}
				continue
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %d, math/rand gives %d", seed, i, g, w)
			}
		}
	}
}

// TestLazySourceReseed reseeds the source at every interesting point of
// its life (before any draw, while still serving from seeded words, on the
// draw that builds the register, after it) and checks the new stream.
func TestLazySourceReseed(t *testing.T) {
	for _, cut := range []int{0, 1, 100, rngTap - 1, rngTap, rngTap + 1, rngLen, 1500} {
		for _, seed := range []int64{0, 7, -99, int32max + 5} {
			var got lazySource
			got.Seed(seed)
			want := rand.NewSource(seed).(rand.Source64)
			for i := 0; i < cut; i++ {
				got.Uint64()
				want.Uint64()
			}
			got.Seed(seed + 1)
			want.Seed(seed + 1)
			for i := 0; i < 1000; i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d reseeded after %d draws, draw %d: Uint64 = %d, math/rand gives %d", seed, cut, i, g, w)
				}
			}
		}
	}
}

// TestEngineRandMatchesMathRand checks the engine's Rand through the
// methods the protocols call (Int63n with assorted bounds, Float64), mixed
// with Uint64, against rand.New(rand.NewSource(seed)). Reseeding mid-stream
// must also restart the reference stream.
func TestEngineRandMatchesMathRand(t *testing.T) {
	bounds := []int64{1, 2, 3, 1001, 1 << 20, 100_001, 1<<31 - 1, 1 << 31, 1<<40 + 7, math.MaxInt64}
	for _, seed := range equivalenceSeeds() {
		got := NewEngine(seed).Rand()
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < equivalenceDraws; i++ {
			switch i % 3 {
			case 0:
				n := bounds[i%len(bounds)]
				if g, w := got.Int63n(n), want.Int63n(n); g != w {
					t.Fatalf("seed %d draw %d: Int63n(%d) = %d, math/rand gives %d", seed, i, n, g, w)
				}
			case 1:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 = %v, math/rand gives %v", seed, i, g, w)
				}
			case 2:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 = %d, math/rand gives %d", seed, i, g, w)
				}
			}
		}
		got.Seed(seed ^ 0x5eed)
		want.Seed(seed ^ 0x5eed)
		for i := 0; i < 700; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d reseeded draw %d: Int63 = %d, math/rand gives %d", seed, i, g, w)
			}
		}
	}
}

// TestNewEngineAllocs gates the cost of a sub-run's RNG: building an
// engine and drawing as much as an n=2 timelock sub-run does allocates
// the engine and its rand.Rand, never a seeded register.
func TestNewEngineAllocs(t *testing.T) {
	seed := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		seed++
		r := NewEngine(seed).Rand()
		for i := 0; i < 32; i++ {
			r.Int63n(1001)
		}
	})
	if allocs > 3 {
		t.Fatalf("NewEngine plus 32 Int63n draws allocates %.1f objects, want <= 3", allocs)
	}
}
