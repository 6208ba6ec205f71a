package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// layers are the attribution targets, in report order. A CPU sample belongs
// to the layer of the first nvdimmc/internal package found walking up its
// stack from the leaf, so runtime and stdlib work counts toward the layer
// that called it. gc takes the samples with no nvdimmc frame at all: the
// garbage collector's workers, the scheduler, and stdlib goroutines that run
// no simulator code, such as net/http connection loops.
var layers = []string{
	"sim", "channel", "cp", "nvmc", "media", "nvdc", "core", "audit",
	"metrics", "pool", "numa", "server", "replay", "workload", "gc",
}

// layerOfPkg maps every nvdimmc/internal package to its layer. The smoke
// test fails when a package is missing, so a new package must be placed
// here before its CPU time can be attributed.
var layerOfPkg = map[string]string{
	"sim":      "sim",
	"ddr4":     "channel",
	"dram":     "channel",
	"bus":      "channel",
	"imc":      "channel",
	"cp":       "cp",
	"nvmc":     "nvmc",
	"refdet":   "nvmc",
	"nand":     "media",
	"ftl":      "media",
	"nvdc":     "nvdc",
	"cpucache": "nvdc",
	"core":     "core",
	"dax":      "core",
	"hostcost": "core",
	"hostmem":  "core",
	"conform":  "audit",
	"trace":    "audit",
	"fault":    "audit",
	"metrics":  "metrics",
	"pool":     "pool",
	"numa":     "numa",
	"server":   "server",
	"replay":   "replay",
	// The experiment harnesses and their models run on no benchmark path;
	// they count as workload code if they ever do.
	"workload":    "workload",
	"experiments": "workload",
	"cpolicy":     "workload",
	"pmem":        "workload",
	"imdb":        "workload",
	"report":      "workload",
}

const internalPrefix = "nvdimmc/internal/"

// layerOf returns the layer a stack (function names, leaf first) belongs to.
func layerOf(funcs []string) string {
	for _, fn := range funcs {
		if !strings.HasPrefix(fn, internalPrefix) {
			continue
		}
		pkg := fn[len(internalPrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if l, ok := layerOfPkg[pkg]; ok {
			return l
		}
	}
	return "gc"
}

// allocFuncs are the runtime entry points that mark a sample as allocation
// work: the malloc path, a GC assist charged to an allocating goroutine, and
// the memclr and memmove that zero and copy memory.
var allocFuncs = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
	"runtime.growslice", "runtime.makemap", "runtime.gcAssistAlloc",
	"runtime.memclrNoHeapPointers", "runtime.memmove",
}

// isAlloc reports whether the runtime frames at the leaf of a stack, up to
// the first non-runtime frame, include an allocation entry point.
func isAlloc(funcs []string) bool {
	for _, fn := range funcs {
		if !strings.HasPrefix(fn, "runtime.") {
			return false
		}
		for _, a := range allocFuncs {
			if strings.HasPrefix(fn, a) {
				return true
			}
		}
	}
	return false
}

// stack is one profile sample: function names from the leaf up, inlined
// frames included, and the CPU time the sample stands for.
type stack struct {
	funcs []string
	ns    int64
}

// cpuShares is a profile reduced to the share of CPU time per layer.
type cpuShares struct {
	// pct holds each layer's share in percent; the shares sum to 100.
	pct map[string]float64
	// allocPct is the share of samples doing allocation work, whatever
	// layer they belong to.
	allocPct float64
	totalNS  int64
}

func attribute(stacks []stack) cpuShares {
	s := cpuShares{pct: make(map[string]float64, len(layers))}
	byLayer := map[string]int64{}
	var alloc int64
	for _, st := range stacks {
		s.totalNS += st.ns
		byLayer[layerOf(st.funcs)] += st.ns
		if isAlloc(st.funcs) {
			alloc += st.ns
		}
	}
	for _, l := range layers {
		s.pct[l] = 100 * ratio(float64(byLayer[l]), float64(s.totalNS))
	}
	s.allocPct = 100 * ratio(float64(alloc), float64(s.totalNS))
	return s
}

// profiler takes the CPU profile of one phase of a traced rep.
type profiler struct{ buf bytes.Buffer }

func (p *profiler) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() ([]stack, error) {
	pprof.StopCPUProfile()
	return decodeProfile(p.buf.Bytes())
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks one protobuf message and calls fn for every field: a varint
// field passes its value in v and a nil b, a length-delimited field passes
// its bytes in b. Fixed-width fields, which profile.proto does not use, are
// skipped.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errTruncated
			}
			b := msg[n : n+int(l) : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
	}
	return nil
}

// varints appends a repeated integer field in either encoding: a single
// varint (b == nil) or a packed run of them.
func varints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errTruncated
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

// decodeProfile reads the gzip-compressed profile.proto that runtime/pprof
// writes and returns its samples. Only the fields attribution needs are
// read: sample types, samples, locations with their inlined lines,
// functions and the string table.
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		strs    []string
		units   []uint64 // sample_type unit string indexes
		samples []sample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]uint64{}   // function id -> name string index
	)
	err = fields(raw, func(num int, _ uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var unit uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 2 {
					unit = v
				}
				return nil
			})
			units = append(units, unit)
			return err
		case 2: // sample
			var s sample
			err := fields(b, func(n int, v uint64, b []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = varints(s.locs, v, b)
				case 2:
					s.vals, err = varints(s.vals, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fnIDs []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: inlined callee first, caller last
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fnIDs = append(fnIDs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fnIDs
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// A CPU profile carries (samples, count) and (cpu, nanoseconds).
	vi := len(units) - 1
	for i, u := range units {
		if str(u) == "nanoseconds" {
			vi = i
		}
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if vi < 0 || vi >= len(s.vals) {
			return nil, fmt.Errorf("profile: sample with %d values, want index %d", len(s.vals), vi)
		}
		st := stack{ns: int64(s.vals[vi])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				st.funcs = append(st.funcs, str(funcs[f]))
			}
		}
		out = append(out, st)
	}
	return out, nil
}
