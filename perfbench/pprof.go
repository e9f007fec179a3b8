package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads a runtime/pprof CPU profile (gzip-compressed
// profile.proto) with nothing but the standard library, and folds its
// samples into the simulator's layers. Only the sample, location,
// function and string tables are decoded; mappings, labels and line
// numbers are skipped.

// hostLayers are the layers host time is charged to, besides
// setupLayer. Each is reported as <layer>.host_s.
var hostLayers = []string{
	"replacement", "llc", "cache", "dram", "event", "trace", "cpu", "dbi", "misspred",
	"other", "runtime",
}

// setupLayer collects machine construction and state copies, whatever
// package the sample's innermost frame is in.
const setupLayer = "system.setup"

// layerOfPkg maps a repository package to its layer; every other
// repository package is "other".
var layerOfPkg = map[string]string{
	"dbisim/internal/replacement": "replacement",
	"dbisim/internal/llc":         "llc",
	"dbisim/internal/cache":       "cache",
	"dbisim/internal/dram":        "dram",
	"dbisim/internal/event":       "event",
	"dbisim/internal/trace":       "trace",
	"dbisim/internal/cpu":         "cpu",
	"dbisim/internal/dbi":         "dbi",
	"dbisim/internal/misspred":    "misspred",
}

// setupFuncs are the entry points whose samples, callees included, are
// charged to setupLayer.
var setupFuncs = []string{
	"dbisim/internal/system.New",
	"dbisim/internal/system.(*System).Reset",
	"dbisim/internal/system.(*System).Snapshot",
	"dbisim/internal/system.(*System).Restore",
}

const repoPrefix = "dbisim/"

// chargeLayer returns the layer one sample is charged to, given its
// stack as function names with the innermost frame first:
//
//  1. system.setup if any frame is (a closure of) a setupFuncs entry;
//  2. else the layer of the innermost frame in a repository package;
//  3. else runtime: the sample has no repository frame.
func chargeLayer(stack []string) string {
	for _, fn := range stack {
		for _, s := range setupFuncs {
			if fn == s || strings.HasPrefix(fn, s+".") {
				return setupLayer
			}
		}
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, repoPrefix) {
			continue
		}
		if l, ok := layerOfPkg[funcPackage(fn)]; ok {
			return l
		}
		return "other"
	}
	return "runtime"
}

// funcPackage returns the import path of a qualified function name such
// as "dbisim/internal/llc.(*LLC).harvestVWQ" or
// "dbisim/internal/sweep.RunState[...].func1".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerTimes is a folded profile.
type layerTimes struct {
	seconds map[string]float64 // by layer, hostLayers plus setupLayer
	total   float64            // all samples' CPU time
	samples int                // profiling interrupts
}

// foldCPUProfile charges every sample of a CPU profile to one layer.
func foldCPUProfile(data []byte) (layerTimes, error) {
	lt := layerTimes{seconds: map[string]float64{}}
	p, err := parseProfile(data)
	if err != nil {
		return lt, err
	}
	vi, ci := -1, -1
	for i, st := range p.sampleTypes {
		switch {
		case p.str(st.typ) == "cpu" && p.str(st.unit) == "nanoseconds":
			vi = i
		case p.str(st.typ) == "samples" && p.str(st.unit) == "count":
			ci = i
		}
	}
	if vi < 0 || ci < 0 {
		return lt, errors.New("profile lacks the samples/count and cpu/nanoseconds sample types")
	}
	var stack []string
	for _, s := range p.samples {
		if vi >= len(s.values) || ci >= len(s.values) {
			return lt, errors.New("sample without a cpu value")
		}
		stack = stack[:0]
		for _, lid := range s.locs {
			for _, fid := range p.locs[lid] {
				stack = append(stack, p.str(p.funcs[fid]))
			}
		}
		sec := float64(s.values[vi]) / 1e9
		lt.seconds[chargeLayer(stack)] += sec
		lt.total += sec
		lt.samples += int(s.values[ci])
	}
	return lt, nil
}

type valueType struct{ typ, unit int64 }

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// profile holds the decoded tables of a profile.proto message.
type profile struct {
	sampleTypes []valueType
	samples     []profSample
	locs        map[uint64][]uint64 // location id → function ids, innermost first
	funcs       map[uint64]int64    // function id → name string index
	strs        []string
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// parseProfile decodes a profile, gunzipping it first if needed.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("gunzip profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("gunzip profile: %w", err)
		}
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(data, func(f field) error {
		switch f.num {
		case 1: // sample_type
			var vt valueType
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					vt.typ = int64(g.v)
				case 2:
					vt.unit = int64(g.v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, vt)
			return err
		case 2: // sample
			var s profSample
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					return g.uints(func(v uint64) { s.locs = append(s.locs, v) })
				case 2:
					return g.uints(func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					return eachField(g.data, func(h field) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}
	return p, nil
}

// field is one decoded protobuf field: v for varint and fixed wire
// types, data for length-delimited ones.
type field struct {
	num  int
	wire int
	v    uint64
	data []byte
}

// uints calls fn with each value of a repeated integer field, packed
// or not.
func (f field) uints(fn func(uint64)) error {
	if f.wire != 2 {
		fn(f.v)
		return nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message.
func eachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			for i := 7; i >= 0; i-- {
				f.v = f.v<<8 | uint64(b[i])
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			f.v = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
