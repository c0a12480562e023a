package main

import "strings"

// Pipeline stages a CPU sample is attributed to.
const (
	stageGenerate = "generate"
	stageSimulate = "simulate"
	stageTimeline = "timeline"
	stageGC       = "gc"
	stageOther    = "other"
)

// gcFrames mark the garbage collector's own work: background marking,
// allocation-paid mark assists and the cycle transitions. They take
// precedence over any stage, as runtime/metrics counts them as GC CPU.
var gcFrames = []string{
	"runtime.gcBgMarkWorker",
	"runtime.gcAssistAlloc",
	"runtime.gcStart",
	"runtime.gcMarkDone",
	"runtime.gcMarkTermination",
}

// stageFrames map frame-name prefixes of package traffic to stages. A
// frame the program no longer has simply never matches, so deleting a
// stage's implementation (the sharded timeline, say) reads as zero.
var stageFrames = []struct{ prefix, stage string }{
	{"repro/internal/traffic.simulateOne", stageSimulate},
	{"repro/internal/traffic.(*timeline).", stageTimeline},
	{"repro/internal/traffic.executeTimeline", stageTimeline},
	{"repro/internal/traffic.(*shardTL).", stageTimeline},
	{"repro/internal/traffic.(*shardStream).", stageTimeline},
	{"repro/internal/traffic.(*shardQueue).", stageTimeline},
	{"repro/internal/traffic.executeShardedTimeline", stageTimeline},
	{"repro/internal/traffic.(*generator).", stageGenerate},
	{"repro/internal/traffic.Workload.generate", stageGenerate},
	{"repro/internal/traffic.Workload.demand", stageGenerate},
	{"repro/internal/traffic.demandOf", stageGenerate},
	{"repro/internal/traffic.newStreamSource.func1", stageGenerate},
}

// drainQueueFrame is the admission timeline's retry of queued payments
// after each settlement; its cumulative share shows how much of the
// timeline is spent re-trying admissions.
const drainQueueFrame = "repro/internal/traffic.(*timeline).drainQueue"

// onStack reports whether any frame of the stack is fn.
func onStack(stack []string, fn string) bool {
	for _, f := range stack {
		if f == fn {
			return true
		}
	}
	return false
}

// stageOf attributes a stack (leaf first) to a stage: GC if any frame is
// the collector's, else the stage of the innermost frame that names one.
func stageOf(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return stageGC
			}
		}
	}
	for _, fn := range stack {
		for _, sf := range stageFrames {
			if strings.HasPrefix(fn, sf.prefix) {
				return sf.stage
			}
		}
	}
	return stageOther
}

// selfPackages are the packages whose self CPU share the traced run
// reports, in report order. "crypto" is the standard library's crypto
// tree, "malloc" the runtime's allocator outside GC work, "math_rand" the
// math/rand package.
var selfPackages = []string{
	"sim", "netsim", "sig", "crypto", "ledger", "core", "timelock", "htlc",
	"weaklive", "notary", "check", "traffic", "fmt", "malloc", "math_rand",
}

// selfPackage names the reported package a sample's leaf frame belongs
// to, or "" for any other. GC samples are never attributed to malloc.
func selfPackage(stack []string, stage string) string {
	if len(stack) == 0 {
		return ""
	}
	path := funcPackage(stack[0])
	switch {
	case strings.HasPrefix(path, "repro/internal/"):
		name := strings.TrimPrefix(path, "repro/internal/")
		for _, p := range selfPackages {
			if p == name {
				return name
			}
		}
	case path == "crypto" || strings.HasPrefix(path, "crypto/") || strings.HasPrefix(path, "vendor/golang.org/x/crypto/"):
		return "crypto"
	case path == "fmt":
		return "fmt"
	case path == "math/rand":
		return "math_rand"
	case path == "runtime" && stage != stageGC:
		if onStack(stack, "runtime.mallocgc") {
			return "malloc"
		}
	}
	return ""
}

// funcPackage is the import path of a profiled function name such as
// "repro/internal/sim.(*Engine).step" or "crypto/sha256.block".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
