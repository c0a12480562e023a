package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// workers is the simulation pool size of every workload: one per core of
// the two-core machine the baseline was taken on. It is fixed, not
// runtime.NumCPU, so the same work is measured on any machine. The shard
// count of the admission kernel is never set: every run keeps the
// program's default.
const workers = 2

// workload is one named set of inputs. build derives the scenario,
// workload and run configuration from the benchmark's seed and a payment
// count; the program under test receives only those generated inputs.
type workload struct {
	name string
	// payments is the population size of one measured RunWith call.
	payments int
	build    func(seed int64, payments int) (core.Scenario, traffic.Workload, traffic.Config)
}

// workloads lists the benchmark's workloads in their fixed report order.
// Each loads a different layer; see baseline.json for why each was chosen.
var workloads = []workload{
	{name: "stream-hmac", payments: 20_000, build: buildStreamHMAC},
	{name: "congested-mix", payments: 2_000, build: buildCongestedMix},
	{name: "ed25519-materialised", payments: 3_000, build: buildEd25519Materialised},
}

// workloadByName resolves a workload name.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// buildStreamHMAC is the headline production configuration: a two-escrow
// chain, time-bounded protocol only, HMAC signatures, the streaming
// pipeline and auto-sized liquidity, so every payment is admitted and the
// per-payment protocol sub-run dominates.
func buildStreamHMAC(seed int64, payments int) (core.Scenario, traffic.Workload, traffic.Config) {
	s := core.NewScenario(2, seed)
	w := traffic.NewWorkload(payments)
	w.Arrival.Rate = 20_000
	return s, w, traffic.Config{Workers: workers, Stream: true, Crypto: sig.BackendHMAC}
}

// buildCongestedMix binds liquidity on an eight-escrow chain with a hot
// sender, a four-protocol mix, a bounded admission queue and a staggered
// Byzantine fault plan, so the single admission timeline and the traffic
// ledgers do most of the work. Liquidity, queue patience and the fault
// plan scale with the population, so every size runs the same regime: 25
// units of liquidity per account per payment (senders run dry two thirds
// of the way through), patience 0.8·D of the arrival span D, and fault
// windows opening from 0.4·D, staggered over 0.8·D, lasting 1.2·D. At 10k
// payments this is 250 000 units, 2 s patience, faults from 1 s with 2 s
// stagger and 3 s outages.
func buildCongestedMix(seed int64, payments int) (core.Scenario, traffic.Workload, traffic.Config) {
	const rate = 4000
	span := sim.Time(float64(payments) / rate * float64(sim.Second))
	s := core.NewScenario(8, seed)
	w := traffic.NewWorkload(payments).WithMix(
		traffic.ProtocolShare{Name: "timelock", Weight: 4},
		traffic.ProtocolShare{Name: "weaklive", Weight: 3},
		traffic.ProtocolShare{Name: "htlc", Weight: 2},
		traffic.ProtocolShare{Name: "weaklive-committee", Weight: 1},
	).WithLiquidity(25*int64(payments)).WithQueue(span*4/5, 0).WithFaults(traffic.FaultPlan{
		Fraction: 0.15,
		From:     span * 2 / 5,
		Stagger:  span * 4 / 5,
		Outage:   span * 6 / 5,
	})
	w.Arrival.Rate = rate
	w.RandomSubPaths = true
	w.HotspotFraction = 0.3
	w.HotspotSender = 0
	return s, w, traffic.Config{Workers: workers, Stream: true, Crypto: sig.BackendHMAC}
}

// buildEd25519Materialised is the facade's default path: real ed25519
// signatures and a materialised run that keeps every payment record.
func buildEd25519Materialised(seed int64, payments int) (core.Scenario, traffic.Workload, traffic.Config) {
	s := core.NewScenario(4, seed)
	w := traffic.NewWorkload(payments).WithMix(
		traffic.ProtocolShare{Name: "timelock", Weight: 1},
		traffic.ProtocolShare{Name: "htlc", Weight: 1},
	)
	w.Arrival.Rate = 500
	return s, w, traffic.Config{Workers: workers}
}
