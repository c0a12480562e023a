package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// cpuProfile is the part of a runtime/pprof CPU profile the benchmark
// reads: each sample's CPU time and its stack as function names, leaf
// first, inlined frames included.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	cpuNs int64
	stack []string
}

// Field numbers of the profile.proto messages the decoder reads.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// parseCPUProfile decodes a gzipped profile.proto as runtime/pprof writes
// it. Only the standard library is available, so this is a minimal
// protobuf reader for the fields listed above; unknown fields are skipped.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	var samples, locations, functions [][]byte
	var strs []string
	top := pbReader{b: raw}
	for !top.done() {
		num, wt := top.key()
		switch {
		case num == profSample && wt == wireBytes:
			samples = append(samples, top.bytes())
		case num == profLocation && wt == wireBytes:
			locations = append(locations, top.bytes())
		case num == profFunction && wt == wireBytes:
			functions = append(functions, top.bytes())
		case num == profStrings && wt == wireBytes:
			strs = append(strs, string(top.bytes()))
		default:
			top.skip(wt)
		}
	}
	if top.err != nil {
		return nil, fmt.Errorf("cpu profile: %w", top.err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	funcName := map[uint64]string{}
	for _, f := range functions {
		r := pbReader{b: f}
		var id, name uint64
		for !r.done() {
			num, wt := r.key()
			switch {
			case num == functionID && wt == wireVarint:
				id = r.varint()
			case num == functionName && wt == wireVarint:
				name = r.varint()
			default:
				r.skip(wt)
			}
		}
		if r.err != nil {
			return nil, fmt.Errorf("cpu profile function: %w", r.err)
		}
		funcName[id] = str(name)
	}
	// A location's lines list its inlined frames innermost first.
	locFrames := map[uint64][]string{}
	for _, l := range locations {
		r := pbReader{b: l}
		var id uint64
		var frames []string
		for !r.done() {
			num, wt := r.key()
			switch {
			case num == locationID && wt == wireVarint:
				id = r.varint()
			case num == locationLine && wt == wireBytes:
				lr := pbReader{b: r.bytes()}
				for !lr.done() {
					n, w := lr.key()
					if n == lineFunction && w == wireVarint {
						frames = append(frames, funcName[lr.varint()])
					} else {
						lr.skip(w)
					}
				}
				if lr.err != nil {
					return nil, fmt.Errorf("cpu profile line: %w", lr.err)
				}
			default:
				r.skip(wt)
			}
		}
		if r.err != nil {
			return nil, fmt.Errorf("cpu profile location: %w", r.err)
		}
		locFrames[id] = frames
	}

	p := &cpuProfile{}
	for _, sm := range samples {
		r := pbReader{b: sm}
		var locs, values []uint64
		for !r.done() {
			num, wt := r.key()
			switch {
			case num == sampleLocation:
				locs = r.uint64s(wt, locs)
			case num == sampleValue:
				values = r.uint64s(wt, values)
			default:
				r.skip(wt)
			}
		}
		if r.err != nil {
			return nil, fmt.Errorf("cpu profile sample: %w", r.err)
		}
		// A CPU profile's sample values are (sample count, CPU nanoseconds).
		if len(values) < 2 {
			return nil, errors.New("cpu profile: sample without a CPU time")
		}
		s := cpuSample{cpuNs: int64(values[1])}
		for _, id := range locs {
			s.stack = append(s.stack, locFrames[id]...)
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

// pbReader reads protobuf fields from a buffer, recording the first error
// and returning zero values after it.
type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) done() bool { return r.err != nil || len(r.b) == 0 }

func (r *pbReader) varint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.fail("truncated varint")
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x
		}
	}
	r.fail("varint overflows 64 bits")
	return 0
}

func (r *pbReader) key() (num, wt int) {
	k := r.varint()
	return int(k >> 3), int(k & 7)
}

func (r *pbReader) bytes() []byte {
	n := r.varint()
	if n > uint64(len(r.b)) {
		r.fail("truncated field")
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// uint64s appends one repeated-varint field, packed or not.
func (r *pbReader) uint64s(wt int, xs []uint64) []uint64 {
	switch wt {
	case wireVarint:
		return append(xs, r.varint())
	case wireBytes:
		pr := pbReader{b: r.bytes()}
		for !pr.done() {
			xs = append(xs, pr.varint())
		}
		if pr.err != nil {
			r.err = pr.err
		}
		return xs
	}
	r.skip(wt)
	return xs
}

func (r *pbReader) skip(wt int) {
	var n int
	switch wt {
	case wireVarint:
		r.varint()
		return
	case wireBytes:
		r.bytes()
		return
	case wireI64:
		n = 8
	case wireI32:
		n = 4
	default:
		r.fail(fmt.Sprintf("unsupported wire type %d", wt))
		return
	}
	if len(r.b) < n {
		r.fail("truncated fixed-width field")
		return
	}
	r.b = r.b[n:]
}

func (r *pbReader) fail(why string) {
	if r.err == nil {
		r.err = errors.New(why)
	}
	r.b = nil
}
