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

// CPU attribution. Each sample of the traced passes' CPU profile lands in
// exactly one cpu.* bucket, by these rules in order:
//
//  1. GC: a stack holding a frame named in gcFrames is garbage-collector
//     work (background mark workers, mark assists, sweeping, scavenging).
//  2. malloc: a stack holding runtime.mallocgc is allocation.
//  3. Otherwise the leaf frame's package picks the bucket from
//     packageBuckets. The match is exact: a package missing from the table —
//     a renamed one included — lands in cpu.other_share, where it shows,
//     never in a neighbour's bucket. TestBucketPackagesExist fails when a
//     listed package no longer exists. A leaf symbol with no package path
//     (cmpbody, memeqbody, aeshashbody) is the runtime's assembly and counts
//     as runtime.
//
// Shares are bucket samples over all samples of the traced passes.

var gcFrames = []string{
	"runtime.gcBgMarkWorker",
	"runtime.gcAssistAlloc",
	"runtime.bgsweep",
	"runtime.bgscavenge",
}

const (
	mallocFrame = "runtime.mallocgc"
	gcBucket    = "cpu.gc_share"
	mallocBkt   = "cpu.malloc_share"
	otherBucket = "cpu.other_share"
)

var packageBuckets = map[string]string{
	// SHA-256: since Go 1.24 crypto/sha256 wraps the FIPS module's code.
	"crypto/sha256":                  "cpu.sha256_share",
	"crypto/internal/fips140/sha256": "cpu.sha256_share",
	// Ed25519, with the SHA-512 it hashes with; the simulator uses SHA-512
	// nowhere else.
	"crypto/ed25519":                             "cpu.ed25519_share",
	"crypto/internal/fips140/ed25519":            "cpu.ed25519_share",
	"crypto/internal/fips140/edwards25519":       "cpu.ed25519_share",
	"crypto/internal/fips140/edwards25519/field": "cpu.ed25519_share",
	"crypto/sha512":                              "cpu.ed25519_share",
	"crypto/internal/fips140/sha512":             "cpu.ed25519_share",
	// Vote and consensus documents: building, encoding, aggregation.
	"partialtor/internal/vote": "cpu.vote_share",
	// Text formatting, mostly vote encoding.
	"fmt":     "cpu.fmt_share",
	"strconv": "cpu.fmt_share",
	// The three directory protocols.
	"partialtor/internal/dirv3":    "cpu.protocol_share",
	"partialtor/internal/syncdir":  "cpu.protocol_share",
	"partialtor/internal/core":     "cpu.protocol_share",
	"partialtor/internal/hotstuff": "cpu.protocol_share",
	// Runtime helpers the simulator's code calls into: copying, clearing,
	// comparing and hashing, slice growth, maps.
	"runtime":               "cpu.runtime_share",
	"internal/runtime/maps": "cpu.runtime_share",
	"internal/bytealg":      "cpu.runtime_share",
	// The network kernel, the cache tier and its fleets, the mesh.
	"partialtor/internal/simnet":   "cpu.simnet_share",
	"partialtor/internal/dircache": "cpu.dircache_share",
	"partialtor/internal/gossip":   "cpu.gossip_share",
}

// cpuShares attributes a gzipped pprof CPU profile to the cpu.* buckets. It
// returns every bucket, zero where no sample landed, and the sample count.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	samples, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{gcBucket: 0, mallocBkt: 0, otherBucket: 0}
	for _, b := range packageBuckets {
		shares[b] = 0
	}
	var total int64
	for _, s := range samples {
		shares[bucketOf(s.stack)] += float64(s.count)
		total += s.count
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= float64(total)
		}
	}
	return shares, total, nil
}

func bucketOf(stack []string) string {
	malloc := false
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return gcBucket
			}
		}
		if fn == mallocFrame {
			malloc = true
		}
	}
	if malloc {
		return mallocBkt
	}
	if len(stack) == 0 {
		return otherBucket
	}
	if !strings.Contains(stack[0], ".") {
		return packageBuckets["runtime"]
	}
	if b, ok := packageBuckets[funcPackage(stack[0])]; ok {
		return b
	}
	return otherBucket
}

// funcPackage returns the import path of a symbol name such as
// "partialtor/internal/vote.(*Document).Digest".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// profSample is one profile sample: its sample count and its stack of
// function names, leaf first (inlined frames included).
type profSample struct {
	count int64
	stack []string
}

// parseProfile decodes the parts of a gzipped profile.proto message that
// attribution needs: samples, locations, functions and the string table.
// Field numbers follow github.com/google/pprof/proto/profile.proto.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		strs    []string
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id -> name string index
	)
	err = eachField(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, data)
				case 2:
					s.values = appendVarints(s.values, v, data)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
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
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{count: int64(s.values[0])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// eachField walks one protobuf message. Varint fields reach fn as v with a
// nil data; length-delimited fields as data (non-nil, possibly empty);
// fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
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
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			data := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
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
