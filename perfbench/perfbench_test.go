package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/traffic"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// small returns the workload shrunk to a test-sized population.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.payments = map[string]int{"stream-hmac": 600, "congested-mix": 400, "ed25519-materialised": 60}[name]
	return w
}

func mustRecorded(t *testing.T) recorded {
	t.Helper()
	rec, err := loadRecorded()
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// benchmarkSpec is BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSmallRunsPassChecks(t *testing.T) {
	rec := mustRecorded(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := small(t, w.name)
			r := runOnce(w, 1, w.payments, rec, nil)
			if r.Err != "" || r.failed() != 0 {
				t.Fatalf("checks failed: %s (failed=%d)", r.Err, r.failed())
			}
			if again := runOnce(w, 1, w.payments, rec, nil); again.Digest != r.Digest {
				t.Fatalf("identical inputs gave digests %s and %s", r.Digest, again.Digest)
			}
		})
	}
}

func TestTamperedDigestFails(t *testing.T) {
	w := small(t, "stream-hmac")
	var rec recorded
	if err := json.Unmarshal([]byte(`{"workloads":[{"name":"stream-hmac","payments":600,"digests":{"1":"0000"}}]}`), &rec); err != nil {
		t.Fatal(err)
	}
	r := runOnce(w, 1, w.payments, rec, nil)
	if !strings.Contains(r.Err, "differs from the digest") || r.failed() != w.payments {
		t.Fatalf("tampered digest passed: err=%q failed=%d", r.Err, r.failed())
	}
	// Another seed has no recorded digest and passes.
	if r := runOnce(w, 2, w.payments, rec, nil); r.Err != "" {
		t.Fatalf("unrecorded seed failed: %s", r.Err)
	}
}

func TestInjectedFaultsFailTheCheck(t *testing.T) {
	w := small(t, "stream-hmac")
	var res *traffic.Result
	r := runOnce(w, 1, w.payments, mustRecorded(t), &hooks{result: func(r *traffic.Result) { res = r }})
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	inject := map[string]func(traffic.Result) traffic.Result{
		"audit error":      func(r traffic.Result) traffic.Result { r.AuditErr = errors.New("injected"); return r },
		"cascade error":    func(r traffic.Result) traffic.Result { r.CascadeErr = errors.New("injected"); return r },
		"pending lock":     func(r traffic.Result) traffic.Result { r.PendingLocks = 1; return r },
		"safety violation": func(r traffic.Result) traffic.Result { r.SafetyViolations = 1; return r },
		"lost payment":     func(r traffic.Result) traffic.Result { r.Succeeded--; return r },
	}
	for _, name := range []string{"audit error", "cascade error", "pending lock", "safety violation", "lost payment"} {
		bad := inject[name](*res)
		if err := checkResult(&bad, w.payments); err == nil {
			t.Errorf("%s passed the output check", name)
		}
	}
	if err := checkResult(res, w.payments); err != nil {
		t.Fatalf("clean result failed: %v", err)
	}
}

func TestReportIsOrdered(t *testing.T) {
	rpt := &report{workload: "w", seed: 1, correct: true, attempted: 10}
	for _, n := range []string{"zeta", "alpha", "mid"} {
		rpt.add(n, "s", 1.5)
	}
	rpt.extra("failed_share", "fraction", 0)
	var a, b bytes.Buffer
	if err := rpt.write(&a); err != nil {
		t.Fatal(err)
	}
	if err := rpt.write(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("report output is not stable")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"zeta":{"value":1.5,"unit":"s"},"alpha"`) || strings.Contains(last, "failed_share") {
		t.Fatalf("JSON line out of order or carries extras: %s", last)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(last), &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 4 || parsed["correct"] != true || parsed["attempted"] != 10.0 || parsed["failed"] != 0.0 {
		t.Fatalf("result keys: %v", parsed)
	}
}

// TestTracedRunMatchesSpec runs a small traced run and checks that it
// reports exactly BENCHMARK.json's per-layer metrics, in order, with
// valid names and units, and that its shares account for the profile.
func TestTracedRunMatchesSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("traced run takes several seconds")
	}
	spec := loadSpec(t)
	// Large enough for a few dozen GC cycles per rep: runtime/metrics
	// books a cycle's CPU when it ends, so a cycle still running when a
	// rep ends is in the profile but not in gc.cpu_share.
	w := small(t, "stream-hmac")
	w.payments = 5000
	rpt, err := runTraced(w, 1, 1, mustRecorded(t), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !rpt.correct {
		t.Fatalf("traced run failed its checks: %v", rpt.errs)
	}
	if len(rpt.metrics) != len(spec.PerLayer) {
		t.Fatalf("traced run reports %d metrics, BENCHMARK.json lists %d", len(rpt.metrics), len(spec.PerLayer))
	}
	got := map[string]float64{}
	for i, m := range rpt.metrics {
		if m.name != spec.PerLayer[i].Name || m.unit != spec.PerLayer[i].Unit {
			t.Errorf("metric %d is %s (%s), BENCHMARK.json has %s (%s)", i, m.name, m.unit, spec.PerLayer[i].Name, spec.PerLayer[i].Unit)
		}
		got[m.name] = m.value
	}
	if got["traffic.simulate_cpu_share"] <= 0 || got["trace.profile_samples"] <= 0 {
		t.Errorf("profile attributed nothing to the simulate stage: %v", got)
	}
	// Three standard errors of a sampled share (at most 0.5/sqrt(n)), plus
	// room for the GC cycle left running at the end of each rep.
	tol := 1.5/math.Sqrt(got["trace.profile_samples"]) + 0.03
	u := got["trace.unaccounted_share"]
	t.Logf("unaccounted share %.4f, tolerance %.4f over %v samples", u, tol, got["trace.profile_samples"])
	if math.Abs(u) > tol {
		t.Errorf("stage and GC shares leave %.3f of the profile unaccounted (tolerance %.3f)", u, tol)
	}
}

func TestCalibrateRunsKernel(t *testing.T) {
	// calibrate panics if the kernel's signature fails to verify.
	if r := calibrate(20 * time.Millisecond); r <= 0 {
		t.Fatalf("reference kernel rate %v, want > 0", r)
	}
}

func TestEndToEndNamesMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	want := []struct{ name, unit string }{
		{"payments_per_ref_s", "payments/ref-s"}, {"ref_cpu_us_per_payment", "ref-us"}, {"allocs_per_payment", "allocs"},
		{"peak_rss_mb", "MiB"}, {"setup_s", "s"},
	}
	if len(spec.EndToEnd) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(spec.EndToEnd), len(want))
	}
	for i, m := range want {
		if spec.EndToEnd[i].Name != m.name || spec.EndToEnd[i].Unit != m.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %v, benchmark %v", i, spec.EndToEnd[i], m)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func TestMetricNamesAreValid(t *testing.T) {
	spec := loadSpec(t)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
			t.Errorf("invalid metric %q (unit %q)", name, unit)
		}
		if seen[name] {
			t.Errorf("metric %q named twice", name)
		}
		seen[name] = true
	}
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit)
	}
	for _, w := range spec.Workloads {
		check(w.Name, "workload")
	}
	for _, r := range ladder {
		if !nameRE.MatchString(r.name) || !nameRE.MatchString(r.allocsName()) {
			t.Errorf("invalid ladder names %q, %q", r.name, r.allocsName())
		}
	}
}

func TestStageAttribution(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"crypto/sha256.block", "repro/internal/traffic.simulateOne", "repro/internal/traffic.newStreamSource.func2"}, stageSimulate},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, stageGC},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/traffic.simulateOne"}, stageGC},
		{[]string{"repro/internal/ledger.(*Ledger).CreateLock", "repro/internal/traffic.(*timeline).drainQueue", "repro/internal/traffic.executeTimeline"}, stageTimeline},
		{[]string{"math/rand.(*Rand).ExpFloat64", "repro/internal/traffic.(*generator).next"}, stageGenerate},
		// A frame the program no longer has reads as no stage at all.
		{[]string{"repro/internal/traffic.(*removedKernel).run"}, stageOther},
	}
	for _, c := range cases {
		if got := stageOf(c.stack); got != c.want {
			t.Errorf("stageOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	if got := selfPackage([]string{"runtime.nextFreeFast", "runtime.mallocgc", "fmt.Sprintf"}, stageSimulate); got != "malloc" {
		t.Errorf("allocator leaf attributed to %q", got)
	}
	if got := selfPackage([]string{"crypto/internal/fips140/sha256.blockAMD64"}, stageSimulate); got != "crypto" {
		t.Errorf("crypto leaf attributed to %q", got)
	}
	if got := selfPackage([]string{"repro/internal/sim.(*Engine).step"}, stageSimulate); got != "sim" {
		t.Errorf("sim leaf attributed to %q", got)
	}
}

// spin burns CPU in a named function the profile must find.
func spin(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x = x*31 + i
	}
	return x
}

var spinSink int

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	for i := 0; i < 400; i++ {
		spinSink += spin(1 << 20)
	}
	pprof.StopCPUProfile()
	prof, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	var totalNs int64
	for _, s := range prof.samples {
		totalNs += s.cpuNs
		for _, fn := range s.stack {
			// Package main's functions carry the module path under go test.
			found = found || strings.HasSuffix(fn, ".spin")
		}
	}
	if len(prof.samples) == 0 || totalNs <= 0 || !found {
		t.Fatalf("profile has %d samples, %d ns, spin found: %v", len(prof.samples), totalNs, found)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage parsed as a profile")
	}
}
