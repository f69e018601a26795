package jpeg

import (
	"bytes"
	"fmt"
)

// Progressive JPEG support (SOF2), restricted to spectral selection
// (Ah = Al = 0), is decode-only. The deployed Lepton rejected progressive
// files "for simplicity" even though the binary could handle them (§6.2),
// and so does this package's encode path; what remains regenerates the
// scans of a stored progressive container from its coefficients: a DC scan
// followed by per-component AC band scans, each re-encoded bit-exactly
// (including EOB-run coding).

// ProgScan is one scan of a progressive file, as a container records it.
type ProgScan struct {
	// HeaderBytes are the verbatim marker segments preceding this scan's
	// entropy data (DHT/DRI/SOS...), excluded for the first scan whose
	// headers live in ProgFile.Header.
	HeaderBytes []byte
	// Comps indexes Frame components participating in this scan.
	Comps []int
	// Sel holds each scan component's Huffman table selectors (Td<<4|Ta),
	// parallel to Comps; applied before re-encoding the scan.
	Sel []byte
	// Spectral band.
	Ss, Se int
	// PadBit / RSTCount / Tail mirror the baseline Scan fields, per scan.
	PadBit   uint8
	RSTCount int
	Tail     []byte
}

// ProgFile is a spectral-selection progressive JPEG's structure.
type ProgFile struct {
	Frame *File
	// Header holds SOI through the first SOS header, verbatim.
	Header  []byte
	Scans   []ProgScan
	Trailer []byte
}

// unpaddedBlocks returns the block geometry of a component for
// non-interleaved scans (no padding to sampling-factor multiples).
func unpaddedBlocks(f *File, ci int) (w, h int) {
	c := &f.Components[ci]
	compW := (f.Width*c.H + f.HMax - 1) / f.HMax
	compH := (f.Height*c.V + f.VMax - 1) / f.VMax
	return (compW + 7) / 8, (compH + 7) / 8
}

// ParseProgressiveHeader parses a progressive file's leading header bytes
// (SOI through the first SOS, as stored in a Lepton container) and returns
// the frame structure. Scan parameters come from the container's per-scan
// records, not from this header; its SOS is only held to the scan rules.
func ParseProgressiveHeader(data []byte) (*File, error) {
	if len(data) < 4 || data[0] != 0xFF || data[1] != mSOI {
		return nil, reject(ReasonNotImage, "missing SOI marker")
	}
	f := &File{}
	sawSOF := false
	pos := 2
	for {
		if pos >= len(data) {
			return nil, reject(ReasonTruncated, "EOF before SOS")
		}
		if data[pos] != 0xFF {
			return nil, reject(ReasonUnsupported, "garbage byte %#02x at %d", data[pos], pos)
		}
		for pos < len(data) && data[pos] == 0xFF {
			pos++
		}
		if pos >= len(data) {
			return nil, reject(ReasonTruncated, "EOF in marker")
		}
		marker := data[pos]
		pos++
		switch {
		case marker == mSOS:
			if !sawSOF {
				return nil, reject(ReasonUnsupported, "SOS before SOF")
			}
			if err := parseProgSOS(f, data, pos); err != nil {
				return nil, err
			}
			return f, nil
		case marker == mEOI:
			return nil, reject(ReasonUnsupported, "EOI before any scan")
		case marker == mSOF2:
			n, err := f.parseSOF(data, pos, 0, false)
			if err != nil {
				return nil, err
			}
			sawSOF = true
			pos += n
		case marker == mSOF0 || marker == mSOF1:
			return nil, reject(ReasonUnsupported, "baseline SOF in progressive parser")
		case marker == mDQT:
			n, err := f.parseDQT(data, pos)
			if err != nil {
				return nil, err
			}
			pos += n
		case marker == mDHT:
			n, err := f.parseDHT(data, pos)
			if err != nil {
				return nil, err
			}
			pos += n
		case marker == mDRI:
			if pos+4 > len(data) || u16(data[pos:]) != 4 {
				return nil, reject(ReasonUnsupported, "bad DRI length")
			}
			f.RestartInterval = u16(data[pos+2:])
			pos += 4
		case marker == mDAC || marker == mSOF9 || marker == mSOFA:
			return nil, reject(ReasonUnsupported, "arithmetic-coded progressive")
		case marker == mSOI, marker == mDNL:
			return nil, reject(ReasonUnsupported, "marker %#02x", marker)
		case marker >= mRST0 && marker <= mRST7:
			return nil, reject(ReasonUnsupported, "restart marker outside scan")
		case marker == 0x01 || marker == 0x00:
			// TEM / stuffed zero: no payload.
		default:
			if pos+2 > len(data) {
				return nil, reject(ReasonTruncated, "EOF in segment length")
			}
			l := u16(data[pos:])
			if l < 2 || pos+l > len(data) {
				return nil, reject(ReasonTruncated, "segment overruns file")
			}
			pos += l
		}
	}
}

// parseProgSOS holds the progressive scan header at data[pos:] to the
// scan rules.
func parseProgSOS(f *File, data []byte, pos int) error {
	if pos+2 > len(data) {
		return reject(ReasonTruncated, "EOF in SOS")
	}
	l := u16(data[pos:])
	if pos+l > len(data) || l < 3 {
		return reject(ReasonTruncated, "SOS overruns file")
	}
	seg := data[pos+2 : pos+l]
	ns := int(seg[0])
	if ns < 1 || ns > len(f.Components) || len(seg) < 1+2*ns+3 {
		return reject(ReasonUnsupported, "scan with %d components", ns)
	}
	var scan ProgScan
	for i := 0; i < ns; i++ {
		cs := seg[1+2*i]
		found := false
		for j := range f.Components {
			if f.Components[j].ID == cs {
				scan.Comps = append(scan.Comps, j)
				scan.Sel = append(scan.Sel, seg[2+2*i])
				found = true
				break
			}
		}
		if !found {
			return reject(ReasonUnsupported, "scan component %d not in frame", cs)
		}
	}
	scan.Ss = int(seg[1+2*ns])
	scan.Se = int(seg[2+2*ns])
	ah := seg[3+2*ns] >> 4
	al := seg[3+2*ns] & 15
	if ah != 0 || al != 0 {
		return reject(ReasonProgressive,
			"successive approximation (Ah=%d Al=%d) unsupported", ah, al)
	}
	return scan.check(f)
}

// check holds a scan to the rules of a spectral-selection scan header: one
// or more distinct frame components, each with selectors naming table
// slots 0..3; a band inside the block; a DC scan coding DC alone; and an
// AC scan coding a single component.
func (s *ProgScan) check(f *File) error {
	if len(s.Comps) == 0 || len(s.Sel) != len(s.Comps) {
		return reject(ReasonUnsupported, "scan with %d components and %d selectors", len(s.Comps), len(s.Sel))
	}
	var seen [MaxComponents]bool
	for i, ci := range s.Comps {
		if ci >= len(f.Components) || seen[ci] {
			return reject(ReasonUnsupported, "scan component index %d repeated or not in frame", ci)
		}
		seen[ci] = true
		if s.Sel[i]>>4 > 3 || s.Sel[i]&15 > 3 {
			return reject(ReasonUnsupported, "table selector %#02x out of range", s.Sel[i])
		}
	}
	if s.Ss > s.Se || s.Se > 63 {
		return reject(ReasonUnsupported, "spectral band %d..%d", s.Ss, s.Se)
	}
	if s.Ss == 0 && s.Se != 0 {
		return reject(ReasonUnsupported, "mixed DC/AC scan")
	}
	if s.Ss > 0 && len(s.Comps) != 1 {
		return reject(ReasonUnsupported, "interleaved AC scan")
	}
	return nil
}

// CheckScans holds every scan record to the scan rules and requires the
// Huffman table each scan selects to be defined when that scan runs. Scan
// records read from a container were never parsed from a scan header, so
// Reassemble requires this check to have passed.
func (p *ProgFile) CheckScans() error {
	f := p.Frame
	if err := reparseTables(f, p.Header); err != nil {
		return err
	}
	for si := range p.Scans {
		s := &p.Scans[si]
		if si > 0 {
			if err := reparseTables(f, s.HeaderBytes); err != nil {
				return err
			}
		}
		if err := s.check(f); err != nil {
			return fmt.Errorf("scan %d: %w", si, err)
		}
		for _, sel := range s.Sel {
			if s.Ss == 0 && f.DC[sel>>4] == nil || s.Ss > 0 && f.AC[sel&15] == nil {
				return reject(ReasonUnsupported, "scan %d selects undefined Huffman table %#02x", si, sel)
			}
		}
	}
	return nil
}

// reparseTables processes DHT/DRI segments in a verbatim header region
// (inter-scan headers, or the leading file header when restoring initial
// table state).
func reparseTables(f *File, hdr []byte) error {
	pos := 0
	for pos+1 < len(hdr) {
		if hdr[pos] != 0xFF {
			return reject(ReasonUnsupported, "garbage between scans")
		}
		for pos < len(hdr) && hdr[pos] == 0xFF {
			pos++
		}
		if pos >= len(hdr) {
			break
		}
		marker := hdr[pos]
		pos++
		switch {
		case marker == mDHT:
			n, err := f.parseDHT(hdr, pos)
			if err != nil {
				return err
			}
			pos += n
		case marker == mDRI:
			if pos+4 > len(hdr) {
				return reject(ReasonTruncated, "short DRI")
			}
			f.RestartInterval = u16(hdr[pos+2:])
			pos += 4
		case marker == mSOI || marker == mEOI || marker == 0x01 || marker == 0x00 ||
			(marker >= mRST0 && marker <= mRST7):
			// No-payload markers.
		default:
			// Everything else (SOS, SOF, DQT, APPn, COM...) was parsed when
			// the file was first walked; skip by segment length.
			if pos+2 > len(hdr) {
				return reject(ReasonTruncated, "short segment")
			}
			l := u16(hdr[pos:])
			if l < 2 || pos+l > len(hdr) {
				return reject(ReasonTruncated, "segment overruns header region")
			}
			pos += l
		}
	}
	return nil
}

type progBlock struct {
	comp int
	off  int // coefficient base offset (block index * 64)
}

// progMCUIter returns the MCU count and a function yielding the blocks of
// MCU m for a progressive scan (interleaved if >1 component,
// unpadded-raster otherwise).
func progMCUIter(f *File, scan *ProgScan) (int, func(int) []progBlock) {
	if len(scan.Comps) == 1 {
		ci := scan.Comps[0]
		w, h := unpaddedBlocks(f, ci)
		bw := f.Components[ci].BlocksWide
		return w * h, func(m int) []progBlock {
			row := m / w
			col := m % w
			return []progBlock{{comp: ci, off: (row*bw + col) * 64}}
		}
	}
	return f.TotalMCUs(), func(m int) []progBlock {
		mcuRow := m / f.MCUsWide
		mcuCol := m % f.MCUsWide
		var out []progBlock
		for _, ci := range scan.Comps {
			c := &f.Components[ci]
			for v := 0; v < c.V; v++ {
				for hh := 0; hh < c.H; hh++ {
					br := mcuRow*c.V + v
					bc := mcuCol*c.H + hh
					out = append(out, progBlock{comp: ci, off: (br*c.BlocksWide + bc) * 64})
				}
			}
		}
		return out
	}
}

// applySelectors installs this scan's Huffman table selectors on the frame
// components, as the scan's SOS header did when the file was read.
func (s *ProgScan) applySelectors(f *File) {
	for i, ci := range s.Comps {
		f.Components[ci].TD = s.Sel[i] >> 4
		f.Components[ci].TA = s.Sel[i] & 15
	}
}

// Reassemble regenerates the complete progressive file from coefficient
// planes: verbatim headers spliced with re-encoded scan data, byte-identical
// to the file the container was written from. p's scans must have passed
// CheckScans.
func (p *ProgFile) Reassemble(coeff [][]int16) ([]byte, error) {
	f := p.Frame
	// Restore the initial Huffman/DRI state: CheckScans left the frame
	// holding tables redefined by later scans.
	if err := reparseTables(f, p.Header); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	out.Write(p.Header)
	for si := range p.Scans {
		scan := &p.Scans[si]
		if si > 0 {
			out.Write(scan.HeaderBytes)
			if err := reparseTables(f, scan.HeaderBytes); err != nil {
				return nil, err
			}
		}
		scan.applySelectors(f)
		var data []byte
		var err error
		if scan.Ss == 0 {
			data, err = encodeProgDC(f, scan, coeff)
		} else {
			data, err = encodeProgAC(f, scan, coeff[scan.Comps[0]], scan.Comps[0])
		}
		if err != nil {
			return nil, fmt.Errorf("scan %d: %w", si, err)
		}
		out.Write(data)
	}
	out.Write(p.Trailer)
	return out.Bytes(), nil
}
