package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// selfSamplesByPackage decodes a gzipped pprof CPU profile (the
// profile.proto wire format runtime/pprof writes) and returns the
// number of samples whose leaf frame lies in each package. Inlined
// frames are attributed to the innermost function, as pprof's flat
// view does.
func selfSamplesByPackage(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]int64{}  // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first, locs, vals := true, 0, 0
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id
					return eachVarint(v, b, func(x uint64) {
						if first {
							s.leaf, first = x, false
						}
						locs++
					})
				case 2: // value: [samples, cpu ns]
					return eachVarint(v, b, func(x uint64) {
						if vals == 0 {
							s.count = int64(x)
						}
						vals++
					})
				}
				return nil
			})
			if err == nil && locs > 0 {
				samples = append(samples, s)
			}
			return err
		case 4: // Location
			var id, fn uint64
			gotLine := false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first one is the innermost frame
					if gotLine {
						return nil
					}
					gotLine = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := ""
		if i, ok := funcName[locFunc[s.leaf]]; ok && i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out[packageOf(name)] += s.count
	}
	return out, nil
}

// packageOf returns the import path of a fully qualified Go function
// name such as "smartbalance/internal/core.(*Annealer).Run".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

var errTruncated = errors.New("pprof: truncated profile")

// eachField walks one protobuf message, calling f with each field
// number and either its varint value (wire types 0, 1 and 5) or its
// bytes (wire type 2, with v the wire type).
func eachField(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			for i := w - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[w:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
			v = 2
		default:
			return errors.New("pprof: unsupported wire type")
		}
		if err := f(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated integer field: a single unpacked value
// (b nil) or a packed run of varints.
func eachVarint(v uint64, b []byte, f func(uint64)) error {
	if b == nil {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		f(x)
		b = b[n:]
	}
	return nil
}
