package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/traffic"
)

// checkResult applies the output checks every benchmark run must pass: the
// liquidity ledgers audit clean and hold no pending lock, the refund
// cascade balances, no owed safety property failed in any payment's
// protocol run, and every payment ended in exactly one status.
func checkResult(res *traffic.Result, payments int) error {
	var errs []error
	if res.AuditErr != nil {
		errs = append(errs, fmt.Errorf("ledger audit: %v", res.AuditErr))
	}
	if res.CascadeErr != nil {
		errs = append(errs, fmt.Errorf("refund cascade: %v", res.CascadeErr))
	}
	if res.PendingLocks != 0 {
		errs = append(errs, fmt.Errorf("%d traffic locks still pending", res.PendingLocks))
	}
	if res.SafetyViolations != 0 {
		errs = append(errs, fmt.Errorf("%d safety violations", res.SafetyViolations))
	}
	sum := res.Succeeded + res.Failed + res.Rejected + res.Dropped + res.Errored
	if sum != payments || res.Total != payments {
		errs = append(errs, fmt.Errorf("statuses sum to %d over %d results, want %d payments", sum, res.Total, payments))
	}
	return errors.Join(errs...)
}

// digestOf is the SHA-256 of the result's byte-stable summary.
func digestOf(res *traffic.Result) string {
	sum := sha256.Sum256([]byte(res.String()))
	return hex.EncodeToString(sum[:])
}

//go:embed baseline.json
var baselineJSON []byte

// recorded is the part of baseline.json the checks read: the result
// digests recorded per workload, keyed by decimal seed, at the workload's
// full size.
type recorded struct {
	Workloads []struct {
		Name     string            `json:"name"`
		Payments int               `json:"payments"`
		Digests  map[string]string `json:"digests"`
	} `json:"workloads"`
}

// loadRecorded parses the embedded baseline.
func loadRecorded() (recorded, error) {
	var r recorded
	if err := json.Unmarshal(baselineJSON, &r); err != nil {
		return r, fmt.Errorf("baseline.json: %w", err)
	}
	return r, nil
}

// checkDigest compares a run's digest with the one recorded for the same
// workload, seed and size. Seeds and sizes without a recorded digest pass.
func (r recorded) checkDigest(name string, seed int64, payments int, digest string) error {
	for _, w := range r.Workloads {
		if w.Name != name || w.Payments != payments {
			continue
		}
		want, ok := w.Digests[strconv.FormatInt(seed, 10)]
		if ok && want != digest {
			return fmt.Errorf("result digest %s differs from the digest %s recorded for %s at seed %d", digest, want, name, seed)
		}
	}
	return nil
}
