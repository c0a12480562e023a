package sig

import (
	"bytes"
	"strconv"
	"sync"
	"testing"

	"repro/internal/sim"
)

// Every backend must satisfy the same signing contract the protocols rely
// on: deterministic keys from (seed, id), round-tripping sign/verify, and
// rejection of wrong signer, tampered payload and empty signature.
func TestBackendContract(t *testing.T) {
	for _, name := range BackendNames() {
		t.Run(name, func(t *testing.T) {
			opts := Options{Backend: name, DisableKeyCache: true}
			kr := NewKeyringWith(opts, "seed", []string{"a", "b"})
			if kr.Backend() != name {
				t.Fatalf("Backend() = %q, want %q", kr.Backend(), name)
			}
			msg := []byte("payload")
			s := kr.Sign("a", msg)
			if len(s) == 0 {
				t.Fatal("empty signature")
			}
			if !kr.Verify("a", msg, s) {
				t.Fatal("valid signature rejected")
			}
			if kr.Verify("b", msg, s) {
				t.Fatal("signature verified against the wrong signer")
			}
			if kr.Verify("a", []byte("tampered"), s) {
				t.Fatal("signature verified over tampered payload")
			}
			if kr.Verify("a", msg, nil) {
				t.Fatal("empty signature verified")
			}
			// Determinism across keyrings.
			kr2 := NewKeyringWith(opts, "seed", []string{"a"})
			if !bytes.Equal(kr2.Sign("a", msg), s) {
				t.Fatal("same (backend, seed, id) produced different signatures")
			}
			kr3 := NewKeyringWith(opts, "other", []string{"a"})
			if bytes.Equal(kr3.Sign("a", msg), s) {
				t.Fatal("different seeds produced identical signatures")
			}
		})
	}
}

func TestBackendByName(t *testing.T) {
	if b, ok := BackendByName(""); !ok || b.Name() != BackendEd25519 {
		t.Fatal("empty name should resolve to the ed25519 default")
	}
	if _, ok := BackendByName("rot13"); ok {
		t.Fatal("unknown backend resolved")
	}
	names := BackendNames()
	if len(names) != 2 || names[0] != BackendEd25519 || names[1] != BackendHMAC {
		t.Fatalf("BackendNames() = %v", names)
	}
}

// Signatures from one backend must not verify under another (a keyring is a
// single-backend object; mixing would mask configuration bugs).
func TestBackendsDoNotCrossVerify(t *testing.T) {
	msg := []byte("payload")
	ed := NewKeyringWith(Options{Backend: BackendEd25519, DisableKeyCache: true}, "seed", []string{"a"})
	mac := NewKeyringWith(Options{Backend: BackendHMAC, DisableKeyCache: true}, "seed", []string{"a"})
	if mac.Verify("a", msg, ed.Sign("a", msg)) {
		t.Fatal("ed25519 signature verified under hmac")
	}
	if ed.Verify("a", msg, mac.Sign("a", msg)) {
		t.Fatal("hmac MAC verified under ed25519")
	}
}

// The process-wide key cache must serve the same keys as direct generation,
// and hit after the first derivation.
func TestKeyCacheEquivalenceAndHits(t *testing.T) {
	ResetKeyCache()
	msg := []byte("payload")
	for _, name := range BackendNames() {
		cached := NewKeyringWith(Options{Backend: name}, "cache-seed", []string{"x", "y"})
		direct := NewKeyringWith(Options{Backend: name, DisableKeyCache: true}, "cache-seed", []string{"x", "y"})
		if !bytes.Equal(cached.Sign("x", msg), direct.Sign("x", msg)) {
			t.Fatalf("%s: cached and direct keys differ", name)
		}
		if st := cached.Stats(); st.KeygenMisses != 2 || st.KeygenHits != 0 {
			t.Fatalf("%s: first keyring stats = %+v, want 2 misses", name, st)
		}
		again := NewKeyringWith(Options{Backend: name}, "cache-seed", []string{"x", "y"})
		if st := again.Stats(); st.KeygenHits != 2 || st.KeygenMisses != 0 {
			t.Fatalf("%s: second keyring stats = %+v, want 2 hits", name, st)
		}
		if !bytes.Equal(again.Sign("x", msg), direct.Sign("x", msg)) {
			t.Fatalf("%s: cache served a wrong key", name)
		}
	}
	if KeyCacheLen() != 4 {
		t.Fatalf("KeyCacheLen() = %d, want 4 (2 ids x 2 backends)", KeyCacheLen())
	}
	ResetKeyCache()
	if KeyCacheLen() != 0 {
		t.Fatal("ResetKeyCache left entries behind")
	}
}

// Key-cache concurrency: any goroutine interleaving must produce the same
// keys (run under -race; the CI race job includes this package).
func TestKeyCacheConcurrency(t *testing.T) {
	ResetKeyCache()
	msg := []byte("concurrent payload")
	for _, name := range BackendNames() {
		want := NewKeyringWith(Options{Backend: name, DisableKeyCache: true}, "race-seed", []string{"p0", "p1", "p2"}).Sign("p1", msg)
		const goroutines = 16
		got := make([]Signature, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				kr := NewKeyringWith(Options{Backend: name}, "race-seed", []string{"p0", "p1", "p2"})
				got[g] = kr.Sign("p1", msg)
			}(g)
		}
		wg.Wait()
		for g := range got {
			if !bytes.Equal(got[g], want) {
				t.Fatalf("%s: goroutine %d derived a different key", name, g)
			}
		}
	}
}

// The key cache must stay bounded: overflowing clears it rather than growing
// without limit (correctness never depends on residency).
func TestKeyCacheBounded(t *testing.T) {
	ResetKeyCache()
	defer ResetKeyCache()
	k := cacheFiller(t, keyCacheLimit+10)
	if k > keyCacheLimit {
		t.Fatalf("key cache grew to %d entries past the %d limit", k, keyCacheLimit)
	}
}

// cacheFiller inserts n distinct hmac keys and returns the peak length seen.
func cacheFiller(t *testing.T, n int) int {
	t.Helper()
	b, _ := BackendByName(BackendHMAC)
	peak := 0
	for i := 0; i < n; i++ {
		cachedKey(b, "bounded-seed", strconv.Itoa(i))
		if l := KeyCacheLen(); l > peak {
			peak = l
		}
	}
	return peak
}

// Verification memoization: the same artefact re-verified costs one backend
// operation; tampering reaches the backend again; negative results memoize
// too; overflow evicts wholesale.
func TestVerifyMemoization(t *testing.T) {
	kr := NewKeyringWith(Options{Backend: BackendEd25519, DisableKeyCache: true}, "memo-seed", []string{"a"})
	msg := []byte("artefact")
	s := kr.Sign("a", msg)
	for i := 0; i < 3; i++ {
		if !kr.Verify("a", msg, s) {
			t.Fatal("valid signature rejected")
		}
	}
	if st := kr.Stats(); st.MemoMisses != 1 || st.MemoHits != 2 {
		t.Fatalf("stats after 3 identical verifies = %+v, want 1 miss + 2 hits", kr.Stats())
	}
	// A tampered payload is a distinct memo entry and must fail repeatedly.
	for i := 0; i < 2; i++ {
		if kr.Verify("a", []byte("tampered"), s) {
			t.Fatal("tampered payload verified")
		}
	}
	if st := kr.Stats(); st.MemoMisses != 2 || st.MemoHits != 3 {
		t.Fatalf("stats after tampered verifies = %+v", kr.Stats())
	}
	if rate := kr.Stats().VerifyMissRate(); rate <= 0 || rate >= 1 {
		t.Fatalf("VerifyMissRate() = %v, want a proper fraction", rate)
	}
}

func TestVerifyMemoDisabledAndEviction(t *testing.T) {
	// Disabled memo: every verify reaches the backend.
	off := NewKeyringWith(Options{Backend: BackendHMAC, DisableKeyCache: true, MemoCapacity: -1}, "memo-seed", []string{"a"})
	msg := []byte("artefact")
	s := off.Sign("a", msg)
	off.Verify("a", msg, s)
	off.Verify("a", msg, s)
	if st := off.Stats(); st.MemoHits != 0 || st.MemoMisses != 2 {
		t.Fatalf("disabled memo stats = %+v", st)
	}

	// Tiny capacity: distinct artefacts force bulk evictions, and results
	// stay correct afterwards.
	small := NewKeyringWith(Options{Backend: BackendHMAC, DisableKeyCache: true, MemoCapacity: 2}, "memo-seed", []string{"a"})
	payloads := [][]byte{[]byte("p1"), []byte("p2"), []byte("p3"), []byte("p4")}
	for _, p := range payloads {
		if !small.Verify("a", p, small.Sign("a", p)) {
			t.Fatalf("valid signature over %q rejected", p)
		}
	}
	if st := small.Stats(); st.MemoEvictions == 0 {
		t.Fatalf("no evictions at capacity 2 across 4 artefacts: %+v", st)
	}
	if !small.Verify("a", payloads[3], small.Sign("a", payloads[3])) {
		t.Fatal("verification wrong after eviction")
	}
}

// White-box: Participants() caches its sorted slice and Add invalidates it.
func TestParticipantsCached(t *testing.T) {
	kr := NewKeyringWith(Options{Backend: BackendHMAC, DisableKeyCache: true}, "parts-seed", []string{"c", "a", "b"})
	p1 := kr.Participants()
	p2 := kr.Participants()
	if &p1[0] != &p2[0] {
		t.Fatal("Participants() re-allocated on a clean cache")
	}
	if p1[0] != "a" || p1[1] != "b" || p1[2] != "c" {
		t.Fatalf("Participants() not sorted: %v", p1)
	}
	kr.Add("parts-seed", "aa")
	p3 := kr.Participants()
	if len(p3) != 4 || p3[1] != "aa" {
		t.Fatalf("Participants() after Add = %v", p3)
	}
	if kr.parts == nil {
		t.Fatal("cache not rebuilt")
	}
	kr.Add("parts-seed", "zz")
	if kr.parts != nil {
		t.Fatal("Add did not invalidate the cached participant slice")
	}
}

// canonical must pre-size exactly and keep field boundaries apart. (Its
// fields are typed, so an unsupported field type no longer compiles.)
func TestCanonicalTypedCases(t *testing.T) {
	enc := canonical("kind", str("s"), num(int64(7)), num(sim.Time(9)), str("\x01\x02"))
	if len(enc) != 8+4+8+1+8+8+8+8+8+2 {
		t.Fatalf("canonical length %d not exactly pre-sized", len(enc))
	}
	if cap(enc) != len(enc) {
		t.Fatalf("canonical over-allocated: len %d cap %d", len(enc), cap(enc))
	}
	// Distinct field splits must encode distinctly (length prefixes).
	if bytes.Equal(canonical("k", str("ab"), str("c")), canonical("k", str("a"), str("bc"))) {
		t.Fatal("field boundaries collide")
	}
}

// GlobalStats aggregates across keyrings; ResetGlobalStats zeroes it.
func TestGlobalStats(t *testing.T) {
	ResetGlobalStats()
	ResetKeyCache()
	kr := NewKeyringWith(Options{Backend: BackendHMAC}, "global-seed", []string{"a"})
	msg := []byte("m")
	s := kr.Sign("a", msg)
	kr.Verify("a", msg, s)
	kr.Verify("a", msg, s)
	st := GlobalStats()
	if st.KeygenMisses == 0 || st.MemoMisses == 0 || st.MemoHits == 0 {
		t.Fatalf("GlobalStats() = %+v, want nonzero counters", st)
	}
	ResetGlobalStats()
	if st := GlobalStats(); st != (Stats{}) {
		t.Fatalf("ResetGlobalStats left %+v", st)
	}
}

// Replacing a participant's key must reset the memo: verdicts memoized
// under the old key may not answer for the new one.
func TestAddReplacementInvalidatesMemo(t *testing.T) {
	kr := NewKeyringWith(Options{Backend: BackendHMAC, DisableKeyCache: true}, "seed-a", []string{"p"})
	msg := []byte("payload")
	s := kr.Sign("p", msg)
	if !kr.Verify("p", msg, s) {
		t.Fatal("valid signature rejected")
	}
	kr.Add("seed-b", "p") // replace p's key
	if kr.Verify("p", msg, s) {
		t.Fatal("signature under the replaced key still verified (stale memo)")
	}
}

// A run that never verifies anything is not a cache regression.
func TestVerifyMissRateNoVerifications(t *testing.T) {
	if rate := (Stats{}).VerifyMissRate(); rate != 0 {
		t.Fatalf("VerifyMissRate() with no verifications = %v, want 0", rate)
	}
	if rate := (Stats{MemoMisses: 3}).VerifyMissRate(); rate != 1 {
		t.Fatalf("VerifyMissRate() with only misses = %v, want 1", rate)
	}
}
