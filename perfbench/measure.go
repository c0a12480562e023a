package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/traffic"
)

// rep is one timed RunWith call of a workload and the verdict of its
// output checks.
type rep struct {
	// Seed is the scenario seed the rep's inputs derive from.
	Seed     int64   `json:"seed"`
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
	Mallocs  uint64  `json:"mallocs"`
	Payments int     `json:"payments"`
	// Errored counts payments that ended with StatusError.
	Errored int    `json:"errored"`
	Digest  string `json:"digest"`
	// KernelRate is the reference kernel's rate in the calibration windows
	// just before and after the rep (their mean), 0 when none ran.
	KernelRate float64 `json:"kernel_rate,omitempty"`
	// Err is the failed output check, empty when every check passed.
	Err string `json:"err,omitempty"`
}

// failed is the number of this rep's payments that count as failed: all of
// them when an output check failed, else those that ended in StatusError.
func (r rep) failed() int {
	if r.Err != "" {
		return r.Payments
	}
	return r.Errored
}

// cpuSeconds is the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	// Getrusage fails only for an invalid "who" or buffer, and both are
	// fixed here.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// hooks let the traced run attach its registry to the configuration,
// start and stop its observers immediately around the RunWith call, and
// see the result. Nil fields are skipped.
type hooks struct {
	config     func(*traffic.Config)
	begin, end func()
	result     func(*traffic.Result)
}

// runOnce builds the workload at the given seed and size, times one
// RunWith call and checks its result. The heap is collected first, outside
// the timed section, so every rep starts from the same state a fresh
// process would. h may be nil.
func runOnce(w workload, seed int64, payments int, rec recorded, h *hooks) rep {
	if h == nil {
		h = &hooks{}
	}
	s, tw, cfg := w.build(seed, payments)
	if h.config != nil {
		h.config(&cfg)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if h.begin != nil {
		h.begin()
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	res, err := traffic.RunWith(s, tw, cfg)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	if h.end != nil {
		h.end()
	}
	runtime.ReadMemStats(&after)
	r := rep{Seed: seed, WallS: wall, CPUS: cpu, Mallocs: after.Mallocs - before.Mallocs, Payments: payments}
	if err != nil {
		r.Err = fmt.Sprintf("RunWith: %v", err)
		return r
	}
	if h.result != nil {
		h.result(res)
	}
	r.Errored = res.Errored
	r.Digest = digestOf(res)
	if err := checkResult(res, payments); err != nil {
		r.Err = err.Error()
	} else if err := rec.checkDigest(w.name, seed, payments, r.Digest); err != nil {
		r.Err = err.Error()
	}
	return r
}

// repSeed is the scenario seed of timed rep k of a run at benchmark seed
// seed. Rep 0 runs the benchmark seed itself, whose digests baseline.json
// records; later reps draw fresh inputs derived from it, so a run's
// medians cover several input sets instead of one. The congested-mix
// workload's cost in particular depends on which connector its fault plan
// corrupts with which behaviour.
func repSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	x := uint64(seed) + uint64(k)*0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return int64((x ^ (x >> 31)) >> 1)
}

// digestLog remembers each scenario seed's result digest: identical
// inputs must give identical results, whatever else the run attached.
type digestLog map[int64]string

// check fails r if an earlier rep on the same seed had another digest.
func (d digestLog) check(r *rep) {
	if r.Err != "" {
		return
	}
	if prev, ok := d[r.Seed]; ok && prev != r.Digest {
		r.Err = fmt.Sprintf("result digest %s differs from %s on identical inputs (seed %d)", r.Digest, prev, r.Seed)
		return
	}
	d[r.Seed] = r.Digest
}

// measureReps runs one warm-up rep on the benchmark seed, then timed reps
// on repSeed(seed, 0), repSeed(seed, 1), ... for at least the given wall
// time and minReps reps, with a calibration window before the first rep
// and after every rep.
func measureReps(w workload, seed int64, payments int, seconds float64, minReps int, rec recorded) (warm rep, reps []rep) {
	log := digestLog{}
	warm = runOnce(w, seed, payments, rec, nil)
	log.check(&warm)
	start := time.Now()
	kr := calibrate(calWindow)
	for len(reps) < minReps || time.Since(start).Seconds() < seconds {
		r := runOnce(w, repSeed(seed, len(reps)), payments, rec, nil)
		next := calibrate(calWindow)
		r.KernelRate = (kr + next) / 2
		kr = next
		log.check(&r)
		reps = append(reps, r)
	}
	return warm, reps
}

// setupOnce times a cold one-payment RunWith of the workload's exact
// scenario and configuration: key generation for the scenario's key seed,
// the protocol registry, fault-plan compilation, the liquidity book and
// pipeline start-up. It is meaningful only as the first run of a fresh
// process.
func setupOnce(w workload, seed int64) (float64, error) {
	s, tw, cfg := w.build(seed, 1)
	t0 := time.Now()
	res, err := traffic.RunWith(s, tw, cfg)
	d := time.Since(t0).Seconds()
	if err != nil {
		return d, fmt.Errorf("RunWith: %w", err)
	}
	return d, checkResult(res, 1)
}
