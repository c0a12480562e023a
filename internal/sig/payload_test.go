package sig

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// legacyCanonical is the reflective `...any` encoder canonical replaced,
// kept verbatim as the reference the typed encoder must match byte for
// byte: every signature ever produced covers these bytes.
func legacyCanonical(kind string, fields ...any) []byte {
	size := 8 + len(kind)
	for _, f := range fields {
		switch v := f.(type) {
		case string:
			size += 8 + len(v)
		case []byte:
			size += 8 + len(v)
		case int64, sim.Time:
			size += 8 + 8
		default:
			panic(fmt.Sprintf("sig: canonical: unsupported field type %T", f))
		}
	}
	out := make([]byte, 0, size)
	appendBytes := func(b []byte) {
		var l [8]byte
		binary.BigEndian.PutUint64(l[:], uint64(len(b)))
		out = append(out, l[:]...)
		out = append(out, b...)
	}
	appendUint64 := func(u uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], u)
		appendBytes(b[:])
	}
	appendBytes([]byte(kind))
	for _, f := range fields {
		switch v := f.(type) {
		case string:
			appendBytes([]byte(v))
		case int64:
			appendUint64(uint64(v))
		case sim.Time:
			appendUint64(uint64(v))
		case []byte:
			appendBytes(v)
		}
	}
	return out
}

// TestPayloadsMatchLegacyEncoder pins the payload bytes of all five
// artefact kinds to the legacy encoder, over empty, long and non-ASCII
// strings and negative, zero and extreme times.
func TestPayloadsMatchLegacyEncoder(t *testing.T) {
	strs := []string{"", "p42", "e0", "c1/e0", "notary-committee", "ünïcödé", strings.Repeat("x", 300)}
	times := []sim.Time{0, 1, -1, 1500 * sim.Millisecond, sim.Never, -sim.Never}
	for i := 0; i < len(strs)*len(times); i++ {
		a, b, c := strs[i%len(strs)], strs[(i/2)%len(strs)], strs[(i/3)%len(strs)]
		t0, t1, t2 := times[i%len(times)], times[(i/2)%len(times)], times[(i/5)%len(times)]
		cases := []struct {
			kind      string
			got, want []byte
		}{
			{"chi",
				paymentCertPayload(PaymentCert{PaymentID: a, Issuer: b, Payer: c, IssuedAt: t0}),
				legacyCanonical("chi", a, b, c, t0)},
			{"guarantee",
				guaranteePayload(Guarantee{PaymentID: a, Escrow: b, Customer: c, D: t1, IssuedAt: t0}),
				legacyCanonical("guarantee", a, b, c, t1, t0)},
			{"promise",
				promisePayload(Promise{PaymentID: a, Escrow: b, Customer: c, A: t0, Epsilon: t2, IssuedAt: t1}),
				legacyCanonical("promise", a, b, c, t0, t2, t1)},
			{"decision",
				decisionPayload(DecisionCert{PaymentID: a, Decision: Decision(b), Manager: c, IssuedAt: t2}),
				legacyCanonical("decision", a, b, c, t2)},
			{"receipt",
				receiptPayload(Receipt{PaymentID: a, Issuer: b, Subject: c, IssuedAt: t1}),
				legacyCanonical("receipt", a, b, c, t1)},
		}
		for _, tc := range cases {
			if !bytes.Equal(tc.got, tc.want) {
				t.Fatalf("%s payload (%q, %q, %q) differs from the legacy encoding:\n got %x\nwant %x",
					tc.kind, a, b, c, tc.got, tc.want)
			}
		}
	}
	// One literal golden, independent of both encoders.
	golden := "0000000000000003636869" + // "chi"
		"0000000000000002" + "7031" + // "p1"
		"0000000000000002" + "6332" + // "c2"
		"0000000000000002" + "6330" + // "c0"
		"0000000000000008" + "00000000000003e8" // 1000
	if got := hex.EncodeToString(paymentCertPayload(PaymentCert{PaymentID: "p1", Issuer: "c2", Payer: "c0", IssuedAt: 1000})); got != golden {
		t.Fatalf("chi payload %s, want %s", got, golden)
	}
}

// TestHMACMatchesCryptoHMAC checks the stack-buffer MAC against
// crypto/hmac for every payload length across the stack buffer's edge, and
// for keys shorter than, equal to and longer than the SHA-256 block.
func TestHMACMatchesCryptoHMAC(t *testing.T) {
	payload := make([]byte, 1200)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	keys := [][]byte{nil, []byte("k"), bytes.Repeat([]byte{0xa5}, 32), bytes.Repeat([]byte{0x5a}, 64),
		bytes.Repeat([]byte{0x3c}, 65), bytes.Repeat([]byte{0xc3}, 200)}
	for _, key := range keys {
		for n := 0; n <= len(payload); n++ {
			ref := hmac.New(sha256.New, key)
			ref.Write(payload[:n])
			want := ref.Sum(nil)
			got := hmacSHA256(key, payload[:n])
			if !bytes.Equal(got[:], want) {
				t.Fatalf("key len %d, payload len %d: MAC %x, crypto/hmac gives %x", len(key), n, got, want)
			}
		}
	}
}

// TestHMACKnownAnswers checks RFC 4231 test cases 2 (short key) and 6 (a
// key longer than the block, hashed first).
func TestHMACKnownAnswers(t *testing.T) {
	cases := []struct {
		key, data []byte
		want      string
	}{
		{[]byte("Jefe"), []byte("what do ya want for nothing?"),
			"5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
		{bytes.Repeat([]byte{0xaa}, 131), []byte("Test Using Larger Than Block-Size Key - Hash Key First"),
			"60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
	}
	for _, tc := range cases {
		got := hmacSHA256(tc.key, tc.data)
		if hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("HMAC-SHA256(key len %d) = %x, want %s", len(tc.key), got, tc.want)
		}
	}
}

// TestSigningAllocs gates the signing hot path: building any payload is
// one allocation, an HMAC signature is one (the signature itself), and an
// HMAC verification with the memo off allocates nothing.
func TestSigningAllocs(t *testing.T) {
	var sink []byte
	builders := []struct {
		name string
		fn   func()
	}{
		{"chi", func() {
			sink = paymentCertPayload(PaymentCert{PaymentID: "p1", Issuer: "c2", Payer: "c0", IssuedAt: 7})
		}},
		{"guarantee", func() {
			sink = guaranteePayload(Guarantee{PaymentID: "p1", Escrow: "e0", Customer: "c0", D: 9, IssuedAt: 7})
		}},
		{"promise", func() {
			sink = promisePayload(Promise{PaymentID: "p1", Escrow: "e0", Customer: "c1", A: 9, Epsilon: 1, IssuedAt: 7})
		}},
		{"decision", func() {
			sink = decisionPayload(DecisionCert{PaymentID: "p1", Decision: DecisionCommit, Manager: "manager", IssuedAt: 7})
		}},
		{"receipt", func() {
			sink = receiptPayload(Receipt{PaymentID: "p1", Issuer: "c2", Subject: "funds-received", IssuedAt: 7})
		}},
	}
	for _, b := range builders {
		if allocs := testing.AllocsPerRun(100, b.fn); allocs != 1 {
			t.Errorf("%s payload builder allocates %.1f objects, want 1", b.name, allocs)
		}
	}
	kr := NewKeyringWith(Options{Backend: BackendHMAC, MemoCapacity: -1}, "alloc-seed", []string{"c0"})
	payload := paymentCertPayload(PaymentCert{PaymentID: "p1", Issuer: "c0", Payer: "c0", IssuedAt: 7})
	var s Signature
	if allocs := testing.AllocsPerRun(100, func() { s = kr.Sign("c0", payload) }); allocs != 1 {
		t.Errorf("HMAC Sign allocates %.1f objects, want 1", allocs)
	}
	ok := true
	if allocs := testing.AllocsPerRun(100, func() { ok = ok && kr.Verify("c0", payload, s) }); allocs != 0 {
		t.Errorf("HMAC Verify (memo off) allocates %.1f objects, want 0", allocs)
	}
	if !ok {
		t.Fatal("HMAC signature did not verify")
	}
	_ = sink
}
