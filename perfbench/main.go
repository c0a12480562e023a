// Command perfbench is the repository's benchmark. It runs one of the
// traffic engine's named workloads through traffic.RunWith, checks every
// result, and prints the end-to-end metrics by name and unit, ending with
// one JSON line. With -trace 1 it instead reports per-layer metrics: timed
// calls into each layer's public functions, the counters the program
// exports, and a CPU profile of a traced run.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload stream-hmac --seed 1 --seconds 20 --trace 0
//
// Every measurement that must see a cold process (set-up time, peak
// resident memory) runs in a child process of this binary.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// setupSeeds and setupRepeats fix the cold set-up measurement: each of
// scenario seeds 1..setupSeeds, whatever the benchmark seed, runs in
// setupRepeats fresh processes, and setup_s is the mean over the seeds of
// each seed's median. A one-payment run's cost depends on which protocol
// its payment draws (an ed25519 timelock payment costs ten times an HTLC
// one), so a seed-dependent set-up would read as a different number on
// every seed, and a median over one process per seed would fall between
// the protocols' costs. A single cold process, in turn, now and then takes
// ten times its usual time; the per-seed median drops those.
const (
	setupSeeds   = 8
	setupRepeats = 5
)

// rssProcs is how many fresh processes each run one rep, on
// repSeed(seed, 0), repSeed(seed, 1), ...; peak_rss_mb is the median of
// their peak resident sets. One process's peak is a maximum over its
// whole life, so it moves with garbage-collector timing and with the one
// input that needed the most memory; the median of several one-rep
// processes does not.
const rssProcs = 11

// minReps is the fewest timed reps a measurement makes, however long
// they take.
const minReps = 3

// childTimeout bounds one child process.
const childTimeout = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: stream-hmac, congested-mix or ed25519-materialised")
		seed    = fs.Int64("seed", 1, "workload seed: the scenario seed every input derives from")
		seconds = fs.Int("seconds", 20, "wall time the timed reps run for")
		traced  = fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
		outDir  = fs.String("out", ".bench_build/trace", "directory the traced run writes its spans and CPU profile to")
		child   = fs.String("child", "", "internal: run one measurement in this process (measure, once or setup)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1\n")
		return 2
	}
	rec, err := loadRecorded()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	switch *child {
	case "":
	case "measure":
		warm, reps := measureReps(w, *seed, w.payments, float64(*seconds), minReps, rec)
		return writeJSON(stdout, stderr, measureOut{Warm: warm, Reps: reps})
	case "once":
		return writeJSON(stdout, stderr, runOnce(w, *seed, w.payments, rec, nil))
	case "setup":
		d, err := setupOnce(w, *seed)
		out := setupOut{SetupS: d}
		if err != nil {
			out.Err = err.Error()
		}
		return writeJSON(stdout, stderr, out)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown -child mode %q\n", *child)
		return 2
	}

	var rpt *report
	if *traced == 1 {
		rpt, err = runTraced(w, *seed, float64(*seconds), rec, *outDir)
	} else {
		rpt, err = runEndToEnd(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rpt.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rpt.correct {
		for _, e := range rpt.errs {
			fmt.Fprintf(stderr, "perfbench: %s: output check failed: %s\n", w.name, e)
		}
		return 1
	}
	return 0
}

// measureOut is what a measuring child reports.
type measureOut struct {
	Warm rep   `json:"warm"`
	Reps []rep `json:"reps"`
}

// setupOut is what a set-up child reports.
type setupOut struct {
	SetupS float64 `json:"setup_s"`
	Err    string  `json:"err,omitempty"`
}

func writeJSON(stdout, stderr io.Writer, v any) int {
	if err := json.NewEncoder(stdout).Encode(v); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// runChild runs this binary in a child mode and decodes its JSON report.
// It returns the child's resource usage, whose Maxrss is the peak resident
// set of a process that ran only that measurement.
func runChild(mode string, w workload, seed int64, seconds int, out any) (*syscall.Rusage, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return nil, fmt.Errorf("%s child report: %w", mode, err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, fmt.Errorf("%s child: no resource usage", mode)
	}
	return ru, nil
}

// runEndToEnd measures the end-to-end metrics: set-up in
// setupSeeds·setupRepeats fresh processes, peak memory in rssProcs more, then the timed reps in one
// last process.
func runEndToEnd(w workload, seed int64, seconds int) (*report, error) {
	rpt := &report{workload: w.name, seed: seed, correct: true}
	var setupS float64
	for i := 0; i < setupSeeds; i++ {
		var times []float64
		for j := 0; j < setupRepeats; j++ {
			var so setupOut
			if _, err := runChild("setup", w, int64(i+1), seconds, &so); err != nil {
				return nil, err
			}
			times = append(times, so.SetupS)
			rpt.attempted++
			if so.Err != "" {
				rpt.fail(1, "set-up run: "+so.Err)
			}
		}
		setupS += median(times) / setupSeeds
	}
	var rss []float64
	var once []rep
	for k := 0; k < rssProcs; k++ {
		var r rep
		ru, err := runChild("once", w, repSeed(seed, k), seconds, &r)
		if err != nil {
			return nil, err
		}
		rss = append(rss, float64(ru.Maxrss)/1024)
		once = append(once, r)
	}
	var mo measureOut
	if _, err := runChild("measure", w, seed, seconds, &mo); err != nil {
		return nil, err
	}
	// Reps in different processes on the same seed must agree too.
	log := digestLog{}
	var payments, wallS, cpuS, refWallS, refCPUS, mallocs float64
	for i, r := range append(append(once, mo.Warm), mo.Reps...) {
		log.check(&r)
		rpt.attempted += r.Payments
		if r.Err != "" {
			rpt.fail(r.failed(), r.Err)
		} else {
			rpt.failed += r.failed()
		}
		if i <= len(once) {
			continue
		}
		payments += float64(r.Payments)
		wallS += r.WallS
		cpuS += r.CPUS
		// Scale the rep's times to the reference machine speed (see
		// calibrate.go): a host slowed by its neighbours runs both the
		// rep and the kernel around it slower.
		speed := r.KernelRate / refKernelRate
		refWallS += r.WallS * speed
		refCPUS += r.CPUS * speed
		mallocs += float64(r.Mallocs)
	}
	// The timed reps run different inputs, and on congested-mix their cost
	// depends on which connector the fault plan corrupts with which
	// behaviour: a few distinct cost levels. A median over such reps jumps
	// between levels from seed to seed; totals over all reps do not.
	rpt.note = fmt.Sprintf("payments=%d timed-reps=%d (+1 warm-up) set-up-processes=%dx%d rss-processes=%d", w.payments, len(mo.Reps), setupSeeds, setupRepeats, rssProcs)
	rpt.add("payments_per_ref_s", "payments/ref-s", payments/refWallS)
	rpt.add("ref_cpu_us_per_payment", "ref-us", refCPUS*1e6/payments)
	rpt.add("allocs_per_payment", "allocs", mallocs/payments)
	rpt.add("peak_rss_mb", "MiB", median(rss))
	rpt.add("setup_s", "s", setupS)
	rpt.extra("failed_share", "fraction", float64(rpt.failed)/float64(rpt.attempted))
	rpt.extra("payments_per_s", "payments/s", payments/wallS)
	rpt.extra("cpu_us_per_payment", "us", cpuS*1e6/payments)
	rpt.extra("machine_speed", "fraction", refWallS/wallS)
	return rpt, nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
}

// report is one benchmark run's outcome: its metrics in report order, and
// the count of payments attempted and failed.
type report struct {
	workload  string
	seed      int64
	note      string
	correct   bool
	errs      []string
	attempted int
	failed    int
	metrics   []metric
	// extras are printed in the readable table but not in the JSON line.
	extras []metric
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, finite(v)})
}

func (r *report) extra(name, unit string, v float64) {
	r.extras = append(r.extras, metric{name, unit, finite(v)})
}

// fail records a failed output check that costs n payments.
func (r *report) fail(n int, why string) {
	r.correct = false
	r.failed += n
	r.errs = append(r.errs, why)
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// write prints the readable table, then the JSON result line, both in
// report order.
func (r *report) write(w io.Writer) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "perfbench: workload=%s seed=%d %s\n", r.workload, r.seed, r.note)
	for _, m := range append(append([]metric(nil), r.metrics...), r.extras...) {
		fmt.Fprintf(&b, "  %-40s %16.6g %s\n", m.name, m.value, m.unit)
	}
	b.WriteString(`{"correct":`)
	b.WriteString(strconv.FormatBool(r.correct))
	fmt.Fprintf(&b, `,"attempted":%d,"failed":%d,"metrics":{`, r.attempted, r.failed)
	for i, m := range r.metrics {
		if i > 0 {
			b.WriteByte(',')
		}
		name, _ := json.Marshal(m.name)
		unit, _ := json.Marshal(m.unit)
		value, err := json.Marshal(m.value)
		if err != nil {
			return fmt.Errorf("metric %s: %w", m.name, err)
		}
		fmt.Fprintf(&b, `%s:{"value":%s,"unit":%s}`, name, value, unit)
	}
	b.WriteString("}}\n")
	_, err := w.Write(b.Bytes())
	return err
}
