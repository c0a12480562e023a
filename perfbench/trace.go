package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/traffic"
)

// sampleEvery is the wall-clock interval at which the traced run samples
// the pipeline counters and the admission queue.
const sampleEvery = 2 * time.Millisecond

// pipelineDepth is the streaming pipeline's channel depth for the
// benchmark's worker count (traffic sizes both channels workers+2). When
// generated minus consumed chunks reach it, the producer is blocked on a
// full pipeline: the timeline is the bottleneck.
const pipelineDepth = workers + 2

// span is one traced interval: a call into a layer, or a group of calls.
// Times are seconds since the trace began; Parent 0 marks the root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the benchmark writes them out.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.t0).Seconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.t0).Seconds() }

// Counters the traced run reads around each RunWith call: from the
// program's metrics registry, then from runtime/metrics.
const (
	cNetSent = iota
	cTrafficLocksCreated
	cTrafficLocksReleased
	cProtocolOps
	cMemoHits
	cMemoMisses
	cKeygenHits
	cKeygenMisses
	cGCCycles
	cAllocBytes
	cCPUGC
	cCPUTotal
	cCPUIdle
	nCounters
)

type counterSet [nCounters]float64

// registryCounters locates each registry counter by family and label set.
var registryCounters = []struct {
	idx          int
	name, labels string
}{
	{cNetSent, netsim.MetricMessagesSent, ""},
	{cTrafficLocksCreated, ledger.MetricLocksCreated, `book="traffic"`},
	{cTrafficLocksReleased, ledger.MetricLocksReleased, `book="traffic"`},
	{cProtocolOps, ledger.MetricOps, `book="protocol"`},
	{cMemoHits, sig.MetricVerifyMemoHits, ""},
	{cMemoMisses, sig.MetricVerifyMemoMisses, ""},
	{cKeygenHits, sig.MetricKeygenCacheHits, ""},
	{cKeygenMisses, sig.MetricKeygenCacheMisses, ""},
}

// runtimeCounters are the runtime/metrics samples, in counterSet order
// from cGCCycles.
var runtimeCounters = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readCounters(reg *metrics.Registry) counterSet {
	var c counterSet
	for _, fam := range reg.Snapshot() {
		for _, rc := range registryCounters {
			if fam.Name != rc.name {
				continue
			}
			for _, s := range fam.Samples {
				if s.Labels == rc.labels {
					c[rc.idx] += s.Value
				}
			}
		}
	}
	rs := make([]rtmetrics.Sample, len(runtimeCounters))
	for i, name := range runtimeCounters {
		rs[i].Name = name
	}
	rtmetrics.Read(rs)
	for i, s := range rs {
		switch s.Value.Kind() {
		case rtmetrics.KindUint64:
			c[cGCCycles+i] = float64(s.Value.Uint64())
		case rtmetrics.KindFloat64:
			c[cGCCycles+i] = s.Value.Float64()
		}
	}
	return c
}

// pipelineSampler samples the streaming pipeline's chunk counters and the
// admission queue depth at a fixed wall-clock interval while a RunWith
// call is active.
type pipelineSampler struct {
	gen, sim, cons *metrics.Counter
	queue          *metrics.Gauge
	active         atomic.Bool
	stop           chan struct{}
	wg             sync.WaitGroup

	// Written by the sampling goroutine; read after stopSampling.
	samples, full, starved int
	queueSum               float64
}

func startSampler(reg *metrics.Registry) *pipelineSampler {
	ps := &pipelineSampler{
		gen:   reg.Counter(traffic.MetricChunksGenerated, ""),
		sim:   reg.Counter(traffic.MetricChunksSimulated, ""),
		cons:  reg.Counter(traffic.MetricChunksConsumed, ""),
		queue: reg.Gauge(traffic.MetricQueueDepth, ""),
		stop:  make(chan struct{}),
	}
	ps.wg.Add(1)
	go func() {
		defer ps.wg.Done()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-ps.stop:
				return
			case <-tick.C:
			}
			if !ps.active.Load() {
				continue
			}
			gen, sim, cons := ps.gen.Value(), ps.sim.Value(), ps.cons.Value()
			ps.samples++
			// A full pipeline stalls on the timeline only while simulated
			// chunks wait for it; full of unsimulated chunks, it stalls on
			// the workers. The timeline is starved when it has consumed
			// every simulated chunk while generated ones remain.
			if gen-cons >= pipelineDepth && sim > cons {
				ps.full++
			}
			if sim == cons && gen > cons {
				ps.starved++
			}
			ps.queueSum += ps.queue.Value()
		}
	}()
	return ps
}

// stopSampling stops the sampling goroutine and waits for it to exit.
func (ps *pipelineSampler) stopSampling() {
	close(ps.stop)
	ps.wg.Wait()
}

// runTraced measures the per-layer metrics: a cold set-up run, the layer
// ladder, untraced reps for the first half of the wall-time budget and
// traced reps for the second. Traced reps attach a metrics registry with
// the sig counters, profile the CPU and sample the pipeline; all of these
// only observe, so their results must match the untraced reps' exactly.
func runTraced(w workload, seed int64, seconds float64, rec recorded, outDir string) (*report, error) {
	rpt := &report{workload: w.name, seed: seed, correct: true}
	tr := &tracer{t0: time.Now()}
	root := tr.begin("perfbench.trace", 0)

	sp := tr.begin("setup", root)
	_, err := setupOnce(w, seed)
	tr.end(sp)
	rpt.attempted++
	if err != nil {
		rpt.fail(1, "set-up run: "+err.Error())
	}

	lad := tr.begin("ladder", root)
	for _, r := range ladder {
		sp := tr.begin(r.name, lad)
		res := measureRung(r.prepare())
		tr.end(sp)
		v := res.ns
		if r.unit == "us" {
			v /= 1e3
		}
		rpt.add(r.name, r.unit, v)
		rpt.add(r.allocsName(), "allocs", res.allocs)
	}
	tr.end(lad)

	// phase runs reps on repSeed(seed, 0), repSeed(seed, 1), ... for the
	// budget (at least two), each inside a traffic.RunWith span, with extra
	// hooks around the call. The warm-up rep repeats the first timed rep's
	// inputs and traced rep k repeats untraced rep k's, so the digest log
	// also proves the observers changed no result.
	log := digestLog{}
	phase := func(name string, budget float64, h hooks) []rep {
		ph := tr.begin(name, root)
		defer tr.end(ph)
		var reps []rep
		var call int
		begin, end := h.begin, h.end
		h.begin = func() {
			call = tr.begin("traffic.RunWith", ph)
			if begin != nil {
				begin()
			}
		}
		h.end = func() {
			if end != nil {
				end()
			}
			tr.end(call)
		}
		start := time.Now()
		for len(reps) < 2 || time.Since(start).Seconds() < budget {
			r := runOnce(w, repSeed(seed, len(reps)), w.payments, rec, &h)
			log.check(&r)
			reps = append(reps, r)
		}
		return reps
	}
	sp = tr.begin("warm-up", root)
	warm := runOnce(w, seed, w.payments, rec, nil)
	tr.end(sp)
	log.check(&warm)
	untraced := phase("untraced", seconds/2, hooks{})

	reg := metrics.NewRegistry()
	sig.RegisterMetrics(reg)
	ps := startSampler(reg)
	var (
		delta                     counterSet
		before                    counterSet
		profiles                  [][]byte
		profBuf                   bytes.Buffer
		profErr                   error
		subEvents, timelineEvents float64
	)
	traced := phase("traced", seconds/2, hooks{
		config: func(c *traffic.Config) { c.Metrics = reg },
		begin: func() {
			before = readCounters(reg)
			profBuf.Reset()
			if err := pprof.StartCPUProfile(&profBuf); err != nil && profErr == nil {
				profErr = err
			}
			ps.active.Store(true)
		},
		end: func() {
			ps.active.Store(false)
			pprof.StopCPUProfile()
			profiles = append(profiles, append([]byte(nil), profBuf.Bytes()...))
			after := readCounters(reg)
			for i := range delta {
				delta[i] += after[i] - before[i]
			}
		},
		result: func(res *traffic.Result) {
			subEvents += float64(res.SubEventsFired)
			timelineEvents += float64(res.TimelineEvents)
		},
	})
	ps.stopSampling()
	if profErr != nil {
		return nil, fmt.Errorf("cpu profile: %w", profErr)
	}

	payments := 0
	var wallS float64
	for _, r := range traced {
		payments += r.Payments
		wallS += r.WallS
	}
	// Traced rep k ran untraced rep k's inputs: compare the pairs.
	var pairedTraced, pairedUntraced float64
	for k := 0; k < min(len(traced), len(untraced)); k++ {
		pairedTraced += traced[k].WallS
		pairedUntraced += untraced[k].WallS
	}
	for _, r := range append(append([]rep{warm}, untraced...), traced...) {
		rpt.attempted += r.Payments
		if r.Err != "" {
			rpt.fail(r.failed(), r.Err)
		} else {
			rpt.failed += r.failed()
		}
	}

	stageNs := map[string]float64{}
	pkgNs := map[string]float64{}
	var totalNs, drainNs float64
	var nSamples int
	for _, raw := range profiles {
		prof, err := parseCPUProfile(raw)
		if err != nil {
			return nil, err
		}
		for _, s := range prof.samples {
			st := stageOf(s.stack)
			ns := float64(s.cpuNs)
			stageNs[st] += ns
			pkgNs[selfPackage(s.stack, st)] += ns
			if onStack(s.stack, drainQueueFrame) {
				drainNs += ns
			}
			totalNs += ns
			nSamples++
		}
	}
	share := func(ns float64) float64 { return ns / totalNs }
	wallNs := wallS * 1e9
	pay := float64(payments)
	gcShare := delta[cCPUGC] / (delta[cCPUTotal] - delta[cCPUIdle])

	rpt.add("traffic.generate_cpu_share", "fraction", share(stageNs[stageGenerate]))
	rpt.add("traffic.simulate_cpu_share", "fraction", share(stageNs[stageSimulate]))
	rpt.add("traffic.timeline_cpu_share", "fraction", share(stageNs[stageTimeline]))
	rpt.add("traffic.other_cpu_share", "fraction", share(stageNs[stageOther]))
	rpt.add("gc.cpu_share", "fraction", gcShare)
	rpt.add("trace.unaccounted_share", "fraction",
		1-share(stageNs[stageGenerate]+stageNs[stageSimulate]+stageNs[stageTimeline]+stageNs[stageOther])-gcShare)
	rpt.add("traffic.drain_queue_cpu_share", "fraction", share(drainNs))
	rpt.add("trace.profile_samples", "count", float64(nSamples))
	rpt.add("traffic.worker_busy_share", "fraction", stageNs[stageSimulate]/(workers*wallNs))
	rpt.add("traffic.timeline_busy_share", "fraction", stageNs[stageTimeline]/wallNs)
	for _, p := range selfPackages {
		rpt.add("cpu_share."+p, "fraction", share(pkgNs[p]))
	}

	rpt.add("sim.sub_events_per_payment", "events", subEvents/pay)
	rpt.add("traffic.timeline_events_per_payment", "events", timelineEvents/pay)
	rpt.add("net.messages_per_payment", "messages", delta[cNetSent]/pay)
	rpt.add("ledger.traffic_locks_per_payment", "locks", delta[cTrafficLocksCreated]/pay)
	rpt.add("ledger.protocol_ops_per_payment", "ops", delta[cProtocolOps]/pay)
	rpt.add("ledger.traffic_lock_yield", "fraction", delta[cTrafficLocksReleased]/delta[cTrafficLocksCreated])
	rpt.add("sig.verify_memo_hit_ratio", "fraction", delta[cMemoHits]/(delta[cMemoHits]+delta[cMemoMisses]))
	rpt.add("sig.keygen_cache_hit_ratio", "fraction", delta[cKeygenHits]/(delta[cKeygenHits]+delta[cKeygenMisses]))
	rpt.add("gc.cycles_per_kpayment", "cycles", delta[cGCCycles]*1000/pay)
	rpt.add("gc.alloc_bytes_per_payment", "bytes", delta[cAllocBytes]/pay)

	// The pipeline counters exist only in streaming runs; a materialised
	// run reports 0 for both shares.
	_, _, cfg := w.build(seed, 1)
	full, starved := 0.0, 0.0
	if cfg.Stream && ps.samples > 0 {
		full = float64(ps.full) / float64(ps.samples)
		starved = float64(ps.starved) / float64(ps.samples)
	}
	rpt.add("traffic.pipeline_full_share", "fraction", full)
	rpt.add("traffic.pipeline_starved_share", "fraction", starved)
	rpt.add("traffic.queue_depth_mean", "payments", ps.queueSum/float64(max(ps.samples, 1)))
	rpt.add("trace.overhead", "fraction", pairedTraced/pairedUntraced-1)
	tr.end(root)

	rpt.note = fmt.Sprintf("payments=%d untraced-reps=%d (+1 warm-up) traced-reps=%d", w.payments, len(untraced), len(traced))
	if err := writeTrace(filepath.Join(outDir, w.name+"-seed"+strconv.FormatInt(seed, 10)), tr.spans, profiles); err != nil {
		return nil, err
	}
	return rpt, nil
}

// writeTrace writes the spans and the traced reps' CPU profiles.
func writeTrace(dir string, spans []span, profiles [][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	js, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), append(js, '\n'), 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	for i, p := range profiles {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", i)), p, 0o644); err != nil {
			return fmt.Errorf("trace output: %w", err)
		}
	}
	return nil
}
