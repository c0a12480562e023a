package main

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// The two-core host the baseline was taken on is shared: a fixed CPU
// kernel of the standard library alone ran 40% slower over one ten-second
// stretch than over another a minute earlier, with nothing else running in
// the machine. Wall and CPU time per payment follow it, so raw times of
// the same code spread wider between runs than any useful regression
// bound. The benchmark therefore times a fixed reference kernel, built
// from the standard library only and so the same for every version of the
// program, in short windows just before and after every timed rep, and
// scales the rep's times by the kernel's speed around it. A scaled time is
// the time the rep would have taken on a machine that runs the kernel at
// refKernelRate. Ten runs of one workload on different seeds spread 3-5%
// (interquartile range over median) in scaled payments per second where
// the raw rate spread 7-18%.

// calWindow is how long one calibration window runs the kernel.
const calWindow = 250 * time.Millisecond

// refKernelRate is the kernel rate, in operations per second over all
// worker goroutines, that scaled times are expressed at: about its median
// on the baseline machine (baseline.json), so scaled and raw times are
// close there.
const refKernelRate = 15600.0

// kernel is the reference kernel's fixed inputs. One operation mixes the
// kinds of work the workloads spend their CPU on: signature crypto, HMAC,
// formatting, small allocations and map churn, and seeding a math/rand
// source.
type kernel struct {
	pub ed25519.PublicKey
	msg []byte
	sig []byte
	key []byte
}

func newKernel() *kernel {
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	msg := []byte("perfbench reference kernel")
	return &kernel{
		pub: priv.Public().(ed25519.PublicKey),
		msg: msg,
		sig: ed25519.Sign(priv, msg),
		key: []byte("perfbench-hmac-key"),
	}
}

// op runs one kernel operation; n varies the formatted keys and the
// random seed. It reports whether the signature verified.
func (k *kernel) op(n int, m map[string][]byte) bool {
	ok := ed25519.Verify(k.pub, k.msg, k.sig)
	for i := 0; i < 16; i++ {
		mac := hmac.New(sha256.New, k.key)
		mac.Write(k.msg)
		m[fmt.Sprintf("c%d-e%d", n, i)] = mac.Sum(nil)
	}
	if len(m) > 64 {
		clear(m)
	}
	rand.New(rand.NewSource(int64(n))).Int63()
	return ok
}

var refKernel = newKernel()

// calibrate runs the reference kernel on workers goroutines for d and
// returns its rate in operations per second.
func calibrate(d time.Duration) float64 {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ops int
		bad bool
	)
	start := time.Now()
	deadline := start.Add(d)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := map[string][]byte{}
			n := 0
			good := true
			for time.Now().Before(deadline) {
				good = refKernel.op(n, m) && good
				n++
			}
			mu.Lock()
			ops += n
			bad = bad || !good
			mu.Unlock()
		}()
	}
	wg.Wait()
	if bad {
		panic("perfbench: reference kernel signature failed to verify")
	}
	return float64(ops) / time.Since(start).Seconds()
}
