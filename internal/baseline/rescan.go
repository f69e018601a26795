package baseline

import (
	"errors"
	"fmt"

	"lepton/internal/core"
	"lepton/internal/dct"
	"lepton/internal/huffman"
	"lepton/internal/jpeg"
)

// guardPlanes rejects geometries whose full coefficient planes would not
// fit the encode-side memory budget. The streaming core codec never
// materializes whole planes (§5.1), so jpeg.Parse's admission control only
// bounds a sliding row window — but the bench-only comparators in this
// package do materialize planes (Rescan's frequency tally and SpecArith's
// model both walk them in full), so a crafted max-dimension header
// (65504×65504 ≈ 25 GB of planes) must be rejected up front with the same
// typed reason production admission control uses (§6.2).
func guardPlanes(f *jpeg.File) error {
	var total int64
	for i := range f.Components {
		c := &f.Components[i]
		total += int64(c.BlocksWide) * int64(c.BlocksHigh) * 64 * 2
	}
	if total > core.MemEncodeBudget {
		return &jpeg.Error{Reason: jpeg.ReasonMemDecode,
			Detail: fmt.Sprintf("coefficient planes need %d bytes > %d budget", total, int64(core.MemEncodeBudget))}
	}
	return nil
}

// Rescan is the JPEGrescan/MozJPEG-style comparator: it re-optimizes the
// Huffman tables for the actual symbol statistics of the scan and rewrites
// the file as a smaller but still baseline JPEG. It is pixel-exact but not
// file-preserving (§2: "format-aware pixel-exact recompression") — the
// original entropy coding cannot be recovered, so Decompress re-decodes the
// optimized file to prove it is a valid JPEG of the same coefficients.
//
// The progressive-reordering half of JPEGrescan is out of scope; see
// DESIGN.md substitutions.
type Rescan struct{}

func (Rescan) Name() string         { return "jpegrescan-style" }
func (Rescan) FilePreserving() bool { return false }

func (Rescan) Compress(data []byte) ([]byte, error) {
	f, err := jpeg.Parse(data, core.MemEncodeBudget)
	if err != nil {
		return nil, err
	}
	if err := guardPlanes(f); err != nil {
		return nil, err
	}
	s, err := jpeg.DecodeScan(f)
	if err != nil {
		return nil, err
	}
	// Tally symbol frequencies per table, in the scan's own coding order.
	var dcFreq, acFreq [4][256]int64
	s.WalkBlocks(func(ci int, diff int32, blk []int16) {
		c := &f.Components[ci]
		dcFreq[c.TD][category(diff)]++
		run := 0
		for k := 1; k < 64; k++ {
			v := int32(blk[dct.Zigzag[k]])
			if v == 0 {
				run++
				continue
			}
			for run >= 16 {
				acFreq[c.TA][0xF0]++
				run -= 16
			}
			acFreq[c.TA][byte(run<<4)|category(v)]++
			run = 0
		}
		if run > 0 {
			acFreq[c.TA][0x00]++
		}
	})
	// Build optimal tables for every table id in use.
	opt := *f // shallow copy; swap table pointers
	for i := 0; i < 4; i++ {
		if f.DC[i] != nil && hasAny(&dcFreq[i]) {
			spec, err := huffman.BuildOptimal(&dcFreq[i])
			if err != nil {
				return nil, err
			}
			opt.DC[i] = spec
		}
		if f.AC[i] != nil && hasAny(&acFreq[i]) {
			spec, err := huffman.BuildOptimal(&acFreq[i])
			if err != nil {
				return nil, err
			}
			opt.AC[i] = spec
		}
	}
	newHeader, err := rewriteDHT(f.Header, &opt)
	if err != nil {
		return nil, err
	}
	s2 := &jpeg.Scan{File: &opt, Coeff: s.Coeff, PadBit: s.PadBit, RSTCount: s.RSTCount, Tail: s.Tail}
	scan, err := jpeg.EncodeScan(s2)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), newHeader...)
	out = append(out, scan...)
	return append(out, f.Trailer...), nil
}

// Decompress parses and re-emits the optimized JPEG (the file itself is the
// deliverable; this measures the serving-side decode cost).
func (Rescan) Decompress(comp []byte) ([]byte, error) {
	f, err := jpeg.Parse(comp, core.MemEncodeBudget)
	if err != nil {
		return nil, err
	}
	if err := guardPlanes(f); err != nil {
		return nil, err
	}
	s, err := jpeg.DecodeScan(f)
	if err != nil {
		return nil, err
	}
	scan, err := jpeg.EncodeScan(s)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), f.Header...)
	out = append(out, scan...)
	return append(out, f.Trailer...), nil
}

func hasAny(freq *[256]int64) bool {
	n := 0
	for _, v := range freq {
		if v > 0 {
			n++
		}
	}
	return n >= 2 // BuildOptimal needs at least two symbols
}

func category(v int32) uint8 {
	if v < 0 {
		v = -v
	}
	var s uint8
	for v != 0 {
		v >>= 1
		s++
	}
	return s
}

// rewriteDHT replaces every DHT segment in a JPEG header with segments
// carrying the optimized tables (all tables emitted in one position,
// before SOS).
func rewriteDHT(header []byte, f *jpeg.File) ([]byte, error) {
	if len(header) < 2 || header[0] != 0xFF || header[1] != 0xD8 {
		return nil, errors.New("rescan: bad header")
	}
	out := []byte{0xFF, 0xD8}
	pos := 2
	for pos < len(header) {
		if header[pos] != 0xFF {
			return nil, errors.New("rescan: garbage in header")
		}
		for pos < len(header) && header[pos] == 0xFF {
			pos++
		}
		if pos >= len(header) {
			break
		}
		marker := header[pos]
		pos++
		if marker == 0xD8 || marker == 0x01 {
			continue
		}
		if pos+2 > len(header) {
			return nil, errors.New("rescan: truncated header segment")
		}
		l := int(header[pos])<<8 | int(header[pos+1])
		if pos+l > len(header) {
			return nil, errors.New("rescan: segment overrun")
		}
		switch marker {
		case 0xC4: // drop original DHT
		case 0xDA: // SOS: emit optimized DHTs, then the SOS segment
			wdc, wac := [4]bool{}, [4]bool{}
			for _, c := range f.Components {
				if !wdc[c.TD] {
					wdc[c.TD] = true
					out = appendDHT(out, 0, c.TD, f.DC[c.TD])
				}
				if !wac[c.TA] {
					wac[c.TA] = true
					out = appendDHT(out, 1, c.TA, f.AC[c.TA])
				}
			}
			out = append(out, 0xFF, marker)
			out = append(out, header[pos:pos+l]...)
		default:
			out = append(out, 0xFF, marker)
			out = append(out, header[pos:pos+l]...)
		}
		pos += l
	}
	return out, nil
}

func appendDHT(dst []byte, tc, th byte, spec *huffman.Spec) []byte {
	payload := []byte{tc<<4 | th}
	payload = append(payload, spec.Counts[:]...)
	payload = append(payload, spec.Symbols...)
	l := len(payload) + 2
	dst = append(dst, 0xFF, 0xC4, byte(l>>8), byte(l))
	return append(dst, payload...)
}
