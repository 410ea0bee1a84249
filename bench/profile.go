package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShareLayers are the ledger's self-time buckets: the program's
// packages by name, the Go runtime split into collector and the rest,
// and everything else (the benchmark's own callbacks, encoding/json in
// the readout, packages too small to list).
func cpuShareLayers() []string {
	return []string{
		"sim", "nfp", "core", "tcpseg", "ctrl", "sched", "netsim", "fabric", "packet",
		"conntab", "host", "libtoe", "baseline", "apps", "flowmon", "shm", "scenario",
		"go.runtime", "go.gc", "other",
	}
}

// layerOf buckets a sample by its leaf function (innermost inlined frame
// first), except that any stack running under the collector's entry
// points is the collector's, whatever leaf it was sampled in.
func layerOf(stack []string) string {
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkTermination":
			return "go.gc"
		}
	}
	leaf := stack[0]
	// The compiler's block-copy and block-clear helpers are not runtime
	// work: they are the cost of a by-value copy (a sim.Task through a
	// Submit, a packet header) and belong to the function that asked.
	for len(stack) > 1 && copyHelper(leaf) {
		stack = stack[1:]
		leaf = stack[0]
	}
	if rest, ok := strings.CutPrefix(leaf, "flextoe/internal/"); ok {
		if strings.HasPrefix(rest, "fabric/workload.") {
			return "apps" // the incast and flow generators are application code
		}
		if i := strings.IndexAny(rest, "./"); i > 0 {
			for _, l := range cpuShareLayers() {
				if l == rest[:i] {
					return l
				}
			}
		}
		return "other"
	}
	if strings.HasPrefix(leaf, "runtime.") || strings.HasPrefix(leaf, "runtime/") || strings.HasPrefix(leaf, "internal/runtime/") {
		return "go.runtime"
	}
	return "other"
}

func copyHelper(fn string) bool {
	switch fn {
	case "runtime.duffcopy", "runtime.duffzero", "runtime.memmove", "runtime.memclrNoHeapPointers":
		return true
	}
	return false
}

// cpuShares parses a runtime/pprof CPU profile and returns each layer's
// share of the sampled self time (shares sum to 1) and the sample count.
func cpuShares(profile []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("bench: cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("bench: cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("bench: cpu profile: %w", err)
	}
	weight := make(map[string]float64)
	var total float64
	var samples int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] { // innermost inlined function first
				stack = append(stack, p.strings[p.funcName[fn]])
			}
		}
		if len(stack) == 0 {
			stack = []string{"?"}
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds; values[0] is the sample count
		weight[layerOf(stack)] += v
		total += v
		samples += s.values[0]
	}
	shares := make(map[string]float64)
	if total == 0 {
		// A window shorter than the 10 ms sampling period: nothing could
		// be attributed, which is what "other" means.
		shares["other"] = 1
		return shares, 0, nil
	}
	for _, l := range cpuShareLayers() {
		shares[l] = weight[l] / total
	}
	return shares, samples, nil
}

// profileData is the part of pprof's profile.proto the ledger needs.
type profileData struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the protobuf wire format by hand: the standard
// library writes these profiles but exports no reader, and the benchmark
// may not add a dependency. Field numbers are profile.proto's.
func parseProfile(b []byte) (*profileData, error) {
	p := &profileData{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, varint uint64, msg []byte) error {
		switch num {
		case 2: // Profile.sample
			var s profSample
			err := eachField(msg, func(num int, v uint64, packed []byte) error {
				switch num {
				case 1: // location_id
					s.locs = appendVarints(s.locs, v, packed)
				case 2: // value
					for _, u := range appendVarints(nil, v, packed) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var funcs []uint64
			err := eachField(msg, func(num int, v uint64, line []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Location.line
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == 1 { // Line.function_id
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // Profile.function
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // Profile.string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field's payload: one value
// when it arrived unpacked, all of them when it arrived packed.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		u, n := uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		packed = packed[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, -1
}

// eachField walks one protobuf message, handing varint fields their
// value and length-delimited fields their bytes (nil for varints).
func eachField(b []byte, fn func(num int, varint uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes field")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
