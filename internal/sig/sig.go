// Package sig provides the authentication layer of the classic Byzantine
// model with authentication assumed by the paper.
//
// It offers deterministic keyrings (one key per participant) over pluggable
// signature backends (see backend.go: real ed25519 by default, or derived-key
// HMAC-SHA256 for runs where crypto must stay off the hot path), typed signed
// artefacts — the payment certificate chi signed by Bob, the escrow promises
// G(d) and P(a), and the commit/abort certificates issued by the transaction
// manager of the weak-liveness protocol — and verification helpers. Byzantine
// participants may refuse to sign or replay artefacts, but cannot forge
// signatures of correct participants.
//
// Two caches keep the model's assumed crypto cheap at traffic scale: a
// process-wide key cache (key derivation is a pure function of
// (backend, seed, id), so per-payment keyrings stop paying keygen per
// participant) and a per-keyring verification memo (the same chi, guarantee
// or promise re-verified at every hop costs one backend operation per
// artefact, not one per hop).
package sig

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Signature is a detached signature over a canonical payload encoding.
type Signature []byte

// String renders a short hex prefix of the signature.
func (s Signature) String() string {
	if len(s) == 0 {
		return "sig()"
	}
	return "sig(" + hex.EncodeToString(s[:8]) + "…)"
}

// deterministicReader produces a reproducible byte stream for key generation
// so that every run with the same seed uses the same keys.
type deterministicReader struct {
	state [32]byte
	buf   []byte
}

func newDeterministicReader(seed string) *deterministicReader {
	return &deterministicReader{state: sha256.Sum256([]byte("xchainpay-keys:" + seed))}
}

func (r *deterministicReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(r.buf) == 0 {
			next := sha256.Sum256(r.state[:])
			r.state = next
			r.buf = append(r.buf, next[:]...)
		}
		c := copy(p[n:], r.buf)
		r.buf = r.buf[c:]
		n += c
	}
	return n, nil
}

// memoDefaultCap bounds the verification memo of one keyring. Single-payment
// runs verify a handful of artefacts; the bound only matters for long-lived
// keyrings, where overflowing resets the memo wholesale (correctness never
// depends on residency).
const memoDefaultCap = 4096

// memoKey identifies one (signer, payload, signature) verification. Payload
// and signature enter by SHA-256 so a memo entry cannot be satisfied by a
// colliding artefact.
type memoKey struct {
	signer  string
	payload [sha256.Size]byte
	sig     [sha256.Size]byte
}

// Keyring maps participant IDs to key pairs under one signature backend.
//
// A keyring is confined to its protocol run's goroutine (like the run's
// sim.Engine): Sign, Verify and Add mutate the memo and key maps without
// locking. The process-wide key cache behind Add is concurrency-safe, so any
// number of runs may build keyrings for the same (seed, id) concurrently.
type Keyring struct {
	backend  Backend
	useCache bool
	keys     map[string]Key
	// parts caches the sorted participant list; nil means dirty
	// (recomputed on demand, invalidated by Add).
	parts []string
	// memo caches verification outcomes; nil means memoization is disabled.
	memo    map[memoKey]bool
	memoCap int
	stats   Stats
}

// NewKeyring creates deterministic ed25519 keys for the given participants
// with default options (process-wide key cache and verification memo on).
// The participant order does not matter: keys depend only on (seed, id).
func NewKeyring(seed string, participants []string) *Keyring {
	return NewKeyringWith(Options{}, seed, participants)
}

// NewKeyringWith creates a keyring under the options' backend.
func NewKeyringWith(opts Options, seed string, participants []string) *Keyring {
	kr := &Keyring{
		backend:  opts.backend(),
		useCache: !opts.DisableKeyCache,
		keys:     make(map[string]Key, len(participants)),
		memoCap:  opts.MemoCapacity,
	}
	if kr.memoCap == 0 {
		kr.memoCap = memoDefaultCap
	}
	if kr.memoCap > 0 {
		kr.memo = make(map[memoKey]bool)
	}
	ids := append([]string(nil), participants...)
	sort.Strings(ids)
	for _, id := range ids {
		kr.Add(seed, id)
	}
	return kr
}

// Backend returns the name of the keyring's signature backend.
func (kr *Keyring) Backend() string { return kr.backend.Name() }

// Add creates (or replaces) the key pair for one participant. Replacing an
// existing key resets the verification memo: outcomes memoized under the
// old key must not answer for the new one.
func (kr *Keyring) Add(seed, id string) {
	if _, replaced := kr.keys[id]; replaced && len(kr.memo) > 0 {
		kr.memo = make(map[memoKey]bool)
		kr.stats.MemoEvictions++
		globalMemoEvictions.Add(1)
	}
	if kr.useCache {
		k, hit := cachedKey(kr.backend, seed, id)
		if hit {
			kr.stats.KeygenHits++
		} else {
			kr.stats.KeygenMisses++
		}
		kr.keys[id] = k
	} else {
		kr.stats.KeygenMisses++
		kr.keys[id] = kr.backend.GenerateKey(seed, id)
	}
	kr.parts = nil
}

// Has reports whether the keyring holds a key for id.
func (kr *Keyring) Has(id string) bool { _, ok := kr.keys[id]; return ok }

// Participants returns the sorted IDs with keys. The sorted slice is cached
// and invalidated by Add; callers must not modify it.
func (kr *Keyring) Participants() []string {
	if kr.parts == nil {
		kr.parts = make([]string, 0, len(kr.keys))
		for id := range kr.keys {
			kr.parts = append(kr.parts, id)
		}
		sort.Strings(kr.parts)
	}
	return kr.parts
}

// Sign signs payload on behalf of id. Signing for an unknown participant
// returns nil (which never verifies).
func (kr *Keyring) Sign(id string, payload []byte) Signature {
	k, ok := kr.keys[id]
	if !ok {
		return nil
	}
	return kr.backend.Sign(k, payload)
}

// Verify checks that signer produced sig over payload. Outcomes are
// memoized per (signer, payload-hash, sig-hash): re-verifying the same
// artefact at every hop of a chain costs one backend operation total.
func (kr *Keyring) Verify(signer string, payload []byte, sig Signature) bool {
	k, ok := kr.keys[signer]
	if !ok || len(sig) == 0 {
		return false
	}
	if kr.memo == nil {
		kr.stats.MemoMisses++
		globalMemoMisses.Add(1)
		return kr.backend.Verify(k, payload, sig)
	}
	mk := memoKey{signer: signer, payload: sha256.Sum256(payload), sig: sha256.Sum256(sig)}
	if v, hit := kr.memo[mk]; hit {
		kr.stats.MemoHits++
		globalMemoHits.Add(1)
		return v
	}
	kr.stats.MemoMisses++
	globalMemoMisses.Add(1)
	v := kr.backend.Verify(k, payload, sig)
	if len(kr.memo) >= kr.memoCap {
		kr.memo = make(map[memoKey]bool)
		kr.stats.MemoEvictions++
		globalMemoEvictions.Add(1)
	}
	kr.memo[mk] = v
	return v
}

// Stats returns this keyring's cache counters (see Stats; GlobalStats
// aggregates across keyrings).
func (kr *Keyring) Stats() Stats { return kr.stats }

// field is one field of a canonical encoding: a string, or (num) a 64-bit
// integer. Typed fields leave nothing to box and no encoding to pick at run
// time; str and num build them.
type field struct {
	s   string
	u   uint64
	num bool
}

// str is a string field (a string or a string-typed enum such as Decision).
func str[T ~string](s T) field { return field{s: string(s)} }

// num is an integer field (int64 or sim.Time), encoded as its 64-bit
// two's-complement value.
func num[T ~int64](v T) field { return field{u: uint64(v), num: true} }

// canonical builds a canonical byte encoding of a typed artefact. Every
// field is length-prefixed so distinct field values can never collide:
// a string is its 8-byte big-endian length then its bytes, an integer the
// length 8 then its 8 big-endian bytes. The output buffer is sized exactly
// in a first pass, so building a payload is one allocation.
func canonical(kind string, fields ...field) []byte {
	size := 8 + len(kind)
	for _, f := range fields {
		if f.num {
			size += 8 + 8
		} else {
			size += 8 + len(f.s)
		}
	}
	out := make([]byte, 0, size)
	out = appendString(out, kind)
	for _, f := range fields {
		if f.num {
			out = binary.BigEndian.AppendUint64(out, 8)
			out = binary.BigEndian.AppendUint64(out, f.u)
		} else {
			out = appendString(out, f.s)
		}
	}
	return out
}

// appendString appends s's length-prefixed encoding.
func appendString(out []byte, s string) []byte {
	out = binary.BigEndian.AppendUint64(out, uint64(len(s)))
	return append(out, s...)
}

// PaymentCert is the certificate chi: a statement signed by Bob that Alice's
// obligation to pay him has been met (Definition 1).
type PaymentCert struct {
	PaymentID string
	Issuer    string // Bob
	Payer     string // Alice
	IssuedAt  sim.Time
	Sig       Signature
}

func paymentCertPayload(c PaymentCert) []byte {
	return canonical("chi", str(c.PaymentID), str(c.Issuer), str(c.Payer), num(c.IssuedAt))
}

// NewPaymentCert builds and signs chi with issuer's key.
func NewPaymentCert(kr *Keyring, paymentID, issuer, payer string, at sim.Time) PaymentCert {
	c := PaymentCert{PaymentID: paymentID, Issuer: issuer, Payer: payer, IssuedAt: at}
	c.Sig = kr.Sign(issuer, paymentCertPayload(c))
	return c
}

// Verify checks chi's signature against the expected issuer.
func (c PaymentCert) Verify(kr *Keyring, expectedIssuer string) bool {
	if c.Issuer != expectedIssuer {
		return false
	}
	return kr.Verify(c.Issuer, paymentCertPayload(c), c.Sig)
}

// Describe implements a human-readable label.
func (c PaymentCert) Describe() string {
	return fmt.Sprintf("chi(%s by %s)", c.PaymentID, c.Issuer)
}

// Guarantee is the promise G(d) issued by escrow e_i to its upstream
// customer c_i: "if I receive $ from you at my local time w, I will send you
// either $ or chi by my local time w + d".
type Guarantee struct {
	PaymentID string
	Escrow    string
	Customer  string
	D         sim.Time // the bound d, in the escrow's local clock units
	IssuedAt  sim.Time
	Sig       Signature
}

func guaranteePayload(g Guarantee) []byte {
	return canonical("guarantee", str(g.PaymentID), str(g.Escrow), str(g.Customer), num(g.D), num(g.IssuedAt))
}

// NewGuarantee builds and signs G(d).
func NewGuarantee(kr *Keyring, paymentID, escrow, customer string, d, at sim.Time) Guarantee {
	g := Guarantee{PaymentID: paymentID, Escrow: escrow, Customer: customer, D: d, IssuedAt: at}
	g.Sig = kr.Sign(escrow, guaranteePayload(g))
	return g
}

// Verify checks the guarantee's signature against its stated escrow.
func (g Guarantee) Verify(kr *Keyring) bool {
	return kr.Verify(g.Escrow, guaranteePayload(g), g.Sig)
}

// Describe implements a human-readable label.
func (g Guarantee) Describe() string {
	return fmt.Sprintf("G(d=%v from %s to %s)", g.D, g.Escrow, g.Customer)
}

// Promise is P(a) issued by escrow e_i to its downstream customer c_{i+1}:
// "if I receive chi from you at my time v with v < now + a, I will send you
// $ by my local time v + epsilon".
type Promise struct {
	PaymentID string
	Escrow    string
	Customer  string
	A         sim.Time // the window a, in the escrow's local clock units
	Epsilon   sim.Time // processing bound epsilon
	IssuedAt  sim.Time // escrow-local issue time (the "now" in the promise)
	Sig       Signature
}

func promisePayload(p Promise) []byte {
	return canonical("promise", str(p.PaymentID), str(p.Escrow), str(p.Customer), num(p.A), num(p.Epsilon), num(p.IssuedAt))
}

// NewPromise builds and signs P(a).
func NewPromise(kr *Keyring, paymentID, escrow, customer string, a, epsilon, at sim.Time) Promise {
	p := Promise{PaymentID: paymentID, Escrow: escrow, Customer: customer, A: a, Epsilon: epsilon, IssuedAt: at}
	p.Sig = kr.Sign(escrow, promisePayload(p))
	return p
}

// Verify checks the promise's signature against its stated escrow.
func (p Promise) Verify(kr *Keyring) bool {
	return kr.Verify(p.Escrow, promisePayload(p), p.Sig)
}

// Describe implements a human-readable label.
func (p Promise) Describe() string {
	return fmt.Sprintf("P(a=%v from %s to %s)", p.A, p.Escrow, p.Customer)
}

// Decision enumerates transaction-manager decisions in the weak-liveness
// protocol (Definition 2).
type Decision string

// Transaction manager decisions.
const (
	DecisionCommit Decision = "commit"
	DecisionAbort  Decision = "abort"
)

// DecisionCert is a commit or abort certificate (chi_c / chi_a) issued by
// the transaction manager. For a notary committee, Signers carries one
// signature per notary; Quorum records how many were required.
type DecisionCert struct {
	PaymentID string
	Decision  Decision
	Manager   string // logical manager identity (single party or committee name)
	IssuedAt  sim.Time
	// Signers lists the notary IDs that signed (just Manager for a single
	// trusted manager).
	Signers []string
	// Sigs holds one signature per entry of Signers, in the same order.
	Sigs []Signature
	// Quorum is the number of signatures required for validity.
	Quorum int
}

func decisionPayload(c DecisionCert) []byte {
	return canonical("decision", str(c.PaymentID), str(c.Decision), str(c.Manager), num(c.IssuedAt))
}

// NewDecisionCert creates a certificate signed by a single manager.
func NewDecisionCert(kr *Keyring, paymentID string, d Decision, manager string, at sim.Time) DecisionCert {
	c := DecisionCert{PaymentID: paymentID, Decision: d, Manager: manager, IssuedAt: at, Quorum: 1}
	c.Signers = []string{manager}
	c.Sigs = []Signature{kr.Sign(manager, decisionPayload(c))}
	return c
}

// NewCommitteeDecisionCert creates a certificate carrying one signature per
// signer; quorum is the validity threshold (e.g. 2f+1 of 3f+1 notaries).
func NewCommitteeDecisionCert(kr *Keyring, paymentID string, d Decision, committee string, at sim.Time, signers []string, quorum int) DecisionCert {
	c := DecisionCert{PaymentID: paymentID, Decision: d, Manager: committee, IssuedAt: at, Quorum: quorum}
	payload := decisionPayload(c)
	for _, s := range signers {
		c.Signers = append(c.Signers, s)
		c.Sigs = append(c.Sigs, kr.Sign(s, payload))
	}
	return c
}

// Verify checks that the certificate carries at least Quorum valid
// signatures from distinct signers.
func (c DecisionCert) Verify(kr *Keyring) bool {
	if len(c.Signers) != len(c.Sigs) || c.Quorum <= 0 {
		return false
	}
	payload := decisionPayload(c)
	valid := 0
	seen := map[string]bool{}
	for i, s := range c.Signers {
		if seen[s] {
			continue
		}
		if kr.Verify(s, payload, c.Sigs[i]) {
			seen[s] = true
			valid++
		}
	}
	return valid >= c.Quorum
}

// Describe implements a human-readable label.
func (c DecisionCert) Describe() string {
	return fmt.Sprintf("%s-cert(%s by %s, %d sigs)", c.Decision, c.PaymentID, c.Manager, len(c.Sigs))
}

// Receipt is a generic signed receipt used by the HTLC/Interledger-atomic
// baseline (the "certified" variant where the recipient signs receipt of
// funds) and by the certified-blockchain deal protocol.
type Receipt struct {
	PaymentID string
	Issuer    string
	Subject   string // what the receipt attests, e.g. "funds-received"
	IssuedAt  sim.Time
	Sig       Signature
}

func receiptPayload(r Receipt) []byte {
	return canonical("receipt", str(r.PaymentID), str(r.Issuer), str(r.Subject), num(r.IssuedAt))
}

// NewReceipt builds and signs a receipt.
func NewReceipt(kr *Keyring, paymentID, issuer, subject string, at sim.Time) Receipt {
	r := Receipt{PaymentID: paymentID, Issuer: issuer, Subject: subject, IssuedAt: at}
	r.Sig = kr.Sign(issuer, receiptPayload(r))
	return r
}

// Verify checks the receipt's signature.
func (r Receipt) Verify(kr *Keyring) bool {
	return kr.Verify(r.Issuer, receiptPayload(r), r.Sig)
}

// Describe implements a human-readable label.
func (r Receipt) Describe() string {
	return fmt.Sprintf("receipt(%s:%s by %s)", r.PaymentID, r.Subject, r.Issuer)
}

// HashLock helpers used by the HTLC baseline.

// HashPreimage hashes a preimage for use as a hashlock.
func HashPreimage(preimage []byte) []byte {
	h := sha256.Sum256(preimage)
	return h[:]
}

// CheckPreimage reports whether preimage hashes to lock.
func CheckPreimage(lock, preimage []byte) bool {
	h := sha256.Sum256(preimage)
	if len(lock) != len(h) {
		return false
	}
	for i := range h {
		if lock[i] != h[i] {
			return false
		}
	}
	return true
}
