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

// cpuProfile is the part of a runtime/pprof CPU profile the layer
// attribution needs: each sample's call stack as function names, leaf
// first, with inlined frames expanded.
type cpuProfile struct {
	stacks [][]string
	counts []int64
	total  int64
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes. Only the fields below are read; see
// github.com/google/pprof/proto/profile.proto for the schema.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var values []int64
			err := walkFields(b, func(f int, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						values = append(values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = values[0]
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			err := walkFields(b, func(f int, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(f int, w int, v uint64, b []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = funcs
		case 5: // Function
			var id uint64
			var name int64
			err := walkFields(b, func(f int, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcNames[fid]; idx >= 0 && idx < int64(len(strs)) {
					stack = append(stack, strs[idx])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, s.count)
		p.total += s.count
	}
	return p, nil
}

// walkFields calls fn for each top-level field of a protobuf message:
// varints arrive in v, length-delimited fields in b.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field given either unpacked
// (one varint) or packed (a length-delimited run of varints).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// share is the fraction of samples for which pred holds.
func (p *cpuProfile) share(pred func(stack []string) bool) float64 {
	if p.total == 0 {
		return 0
	}
	var n int64
	for i, st := range p.stacks {
		if pred(st) {
			n += p.counts[i]
		}
	}
	return float64(n) / float64(p.total)
}

// inclusive reports whether any frame satisfies match.
func inclusive(match func(fn string) bool) func([]string) bool {
	return func(stack []string) bool {
		for _, fn := range stack {
			if match(fn) {
				return true
			}
		}
		return false
	}
}

// selfLayer attributes a sample to the innermost frame that belongs to
// the smtavf module: that package's own code plus the standard-library
// and runtime code it called directly. Pool.ClassifyBatch is ACE
// classification, so it counts as the avf layer although it lives in
// pipeline.
func selfLayer(stack []string) string {
	for _, fn := range stack {
		if strings.HasSuffix(fn, "pipeline.(*Pool).ClassifyBatch") {
			return "avf"
		}
		pkg := funcPackage(fn)
		if pkg == "smtavf" {
			return "smtavf"
		}
		if rest, ok := strings.CutPrefix(pkg, "smtavf/internal/"); ok {
			return rest
		}
	}
	return ""
}

// funcPackage returns the import path of a profile function name such as
// "smtavf/internal/core.(*Processor).commit".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
