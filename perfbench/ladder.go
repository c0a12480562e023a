package main

import (
	"runtime"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// rung is one timed call into a layer's public API. prepare builds the
// operation's fixed state once, outside the timing, and returns the
// operation; the op's argument counts calls so ops can vary their input.
type rung struct {
	// name is the timing metric's name, with its unit after an underscore
	// ("sim.new_engine_ns", "timelock.run_us.h2").
	name    string
	unit    string
	prepare func() func(i int)
}

// The sinks keep the results of timed calls alive, so the compiler cannot
// drop the calls. They are typed: storing into an interface would add an
// allocation to the count.
var (
	sinkEngine  *sim.Engine
	sinkID      string
	sinkKeyring *sig.Keyring
	sinkSig     sig.Signature
	sinkReport  check.Report
)

// ladderKeySeed is the shared key seed of every ladder sub-run, as traffic
// points each payment's sub-scenario at one key seed.
const ladderKeySeed = "perfbench-ladder"

// ladderTarget is the wall time one timed batch of a rung aims for, and
// ladderBatches how many batches a rung times; the reported cost is the
// median batch's.
const (
	ladderTarget  = 4 * time.Millisecond
	ladderBatches = 9
)

// ladder is every rung, in report order.
var ladder = []rung{
	{"sim.new_engine_ns", "ns", func() func(int) {
		return func(i int) { sinkEngine = sim.NewEngine(int64(i)) }
	}},
	{"sim.schedule_fire_ns", "ns", func() func(int) {
		eng := sim.NewEngine(1)
		fn := func() {}
		return func(int) {
			eng.ScheduleAt(eng.Now()+1, "tick", fn)
			eng.Run(0)
		}
	}},
	{"netsim.send_deliver_ns", "ns", func() func(int) {
		eng := sim.NewEngine(1)
		tr := trace.New()
		tr.Mute()
		net := netsim.New(eng, netsim.Synchronous{Min: 1, Max: 1}, tr)
		net.Register(&netsim.FuncNode{Id: "a"})
		net.Register(&netsim.FuncNode{Id: "b"})
		var msg netsim.Message = netsim.RawMessage{Label: "m"}
		return func(int) {
			net.Send("a", "b", msg)
			eng.Run(0)
		}
	}},
	{"core.ids_ns", "ns", func() func(int) {
		return func(i int) {
			sinkID = core.CustomerID(i & 7)
			sinkID = core.EscrowID(i & 7)
		}
	}},
	{"sig.hmac.sign_ns", "ns", signRung(sig.BackendHMAC, false)},
	{"sig.hmac.verify_ns", "ns", signRung(sig.BackendHMAC, true)},
	{"sig.ed25519.sign_ns", "ns", signRung(sig.BackendEd25519, false)},
	{"sig.ed25519.verify_ns", "ns", signRung(sig.BackendEd25519, true)},
	{"sig.keyring_new_ns", "ns", func() func(int) {
		opts := sig.Options{Backend: sig.BackendHMAC}
		parts := core.NewTopology(2).Participants()
		sig.NewKeyringWith(opts, ladderKeySeed, parts) // fill the key cache
		return func(int) { sinkKeyring = sig.NewKeyringWith(opts, ladderKeySeed, parts) }
	}},
	{"ledger.lock_release_ns", "ns", lockRung(func(l *ledger.Ledger) { _ = l.Release(0, "lk", nil, 0) })},
	{"ledger.lock_refund_ns", "ns", lockRung(func(l *ledger.Ledger) { _ = l.Refund(0, "lk", 0) })},
	{"ledger.lock_reject_ns", "ns", func() func(int) {
		l := fundedLedger()
		return func(int) {
			if _, err := l.CreateLock(0, "lk", "c0", "c1", 1<<40, ledger.Condition{}); err == nil {
				panic("perfbench: over-balance lock was admitted")
			}
		}
	}},
	{"timelock.run_us.h2", "us", protocolRung("timelock", 2, sig.BackendHMAC)},
	{"timelock.run_us.h4", "us", protocolRung("timelock", 4, sig.BackendEd25519)},
	{"htlc.run_us.h4", "us", protocolRung("htlc", 4, sig.BackendEd25519)},
	{"weaklive.run_us.h4", "us", protocolRung("weaklive", 4, sig.BackendHMAC)},
	{"weaklive-committee.run_us.h4", "us", protocolRung("weaklive-committee", 4, sig.BackendHMAC)},
	{"check.evaluate_us", "us", func() func(int) {
		s := core.NewScenario(2, 1)
		s.Crypto = sig.BackendHMAC
		r, err := traffic.DefaultProtocols()["timelock"].Run(s)
		if err != nil {
			panic("perfbench: recorded timelock run: " + err.Error())
		}
		opts := check.Def1Eventual()
		return func(int) { sinkReport = check.Evaluate(r, opts) }
	}},
}

// signRung times one backend Sign, or one Verify with the verification
// memo off so every call pays the backend.
func signRung(backend string, verify bool) func() func(int) {
	return func() func(int) {
		kr := sig.NewKeyringWith(sig.Options{Backend: backend, MemoCapacity: -1}, ladderKeySeed, []string{"c0"})
		payload := []byte("perfbench ladder payload: a payment certificate's canonical bytes")
		if !verify {
			return func(int) { sinkSig = kr.Sign("c0", payload) }
		}
		s := kr.Sign("c0", payload)
		return func(int) {
			if !kr.Verify("c0", payload, s) {
				panic("perfbench: valid signature rejected")
			}
		}
	}
}

// fundedLedger is a compacted ledger funded like a traffic book's.
func fundedLedger() *ledger.Ledger {
	l := ledger.New("e0")
	l.SetCompact(true)
	_ = l.Mint(0, "c0", 1<<30)
	_ = l.CreateAccount("c1")
	return l
}

// lockRung times CreateLock followed by the given settlement. The ledger
// is compacted, as traffic books are, so the settled lock's ID is free
// again for the next call.
func lockRung(settle func(*ledger.Ledger)) func() func(int) {
	return func() func(int) {
		l := fundedLedger()
		return func(int) {
			if _, err := l.CreateLock(0, "lk", "c0", "c1", 100, ledger.Condition{}); err != nil {
				panic("perfbench: " + err.Error())
			}
			settle(l)
		}
	}
}

// protocolRung times one muted sub-run of the named protocol on an
// h-escrow chain, with a fresh scenario seed per call and a shared key
// seed, as traffic builds each payment's sub-run.
func protocolRung(name string, h int, backend string) func() func(int) {
	return func() func(int) {
		proto := traffic.DefaultProtocols()[name]
		base := core.NewScenario(h, 0)
		base.Crypto = backend
		base.KeySeed = ladderKeySeed
		base.MuteTrace = true
		return func(i int) {
			if _, err := proto.Run(base.WithSeed(int64(i))); err != nil {
				panic("perfbench: " + name + " sub-run: " + err.Error())
			}
		}
	}
}

// allocsName is the name of a rung's allocations-per-call metric: its
// timing name without the unit ("sim.new_engine.allocs").
func (r rung) allocsName() string {
	return strings.Replace(r.name, "_"+r.unit, "", 1) + ".allocs"
}

// rungResult is one rung's measured cost per call.
type rungResult struct {
	ns     float64
	allocs float64
}

// measureRung calibrates a batch size that takes about ladderTarget, then
// times ladderBatches batches and reports the median batch's cost per
// call, and the heap allocations per call of one further batch.
func measureRung(op func(int)) rungResult {
	i := 0
	batch := func(n int) time.Duration {
		t0 := time.Now()
		for end := i + n; i < end; i++ {
			op(i)
		}
		return time.Since(t0)
	}
	n := 1
	for d := batch(n); d < ladderTarget && n < 1<<30; d = batch(n) {
		if d <= 0 {
			n *= 100
			continue
		}
		next := int(float64(n) * 1.2 * float64(ladderTarget) / float64(d))
		n = max(next, n+1)
	}
	per := make([]float64, ladderBatches)
	for k := range per {
		per[k] = float64(batch(n)) / float64(n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	batch(n)
	runtime.ReadMemStats(&after)
	return rungResult{
		ns:     median(per),
		allocs: float64(after.Mallocs-before.Mallocs) / float64(n),
	}
}
