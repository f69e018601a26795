package jpeg

import (
	"lepton/internal/huffman"
)

// JPEG marker codes (the byte following 0xFF).
const (
	mSOF0 = 0xC0 // baseline sequential DCT
	mSOF1 = 0xC1 // extended sequential DCT
	mSOF2 = 0xC2 // progressive DCT
	mSOF3 = 0xC3 // lossless
	mDHT  = 0xC4
	mSOF5 = 0xC5
	mSOF6 = 0xC6
	mSOF7 = 0xC7
	mJPG  = 0xC8
	mSOF9 = 0xC9 // extended sequential, arithmetic
	mSOFA = 0xCA // progressive, arithmetic
	mSOFB = 0xCB
	mDAC  = 0xCC
	mSOFD = 0xCD
	mSOFE = 0xCE
	mSOFF = 0xCF
	mRST0 = 0xD0
	mRST7 = 0xD7
	mSOI  = 0xD8
	mEOI  = 0xD9
	mSOS  = 0xDA
	mDQT  = 0xDB
	mDNL  = 0xDC
	mDRI  = 0xDD
	mAPP0 = 0xE0
	mAPPF = 0xEF
	mCOM  = 0xFE
)

// MaxComponents is the number of color components the format supports.
// Production Lepton handled three (YCbCr/grayscale) and rejected CMYK; the
// fourth channel is the optional "extra model for the 4th color channel"
// the paper mentions (§6.2), enabled via ParseOpt's allowCMYK.
const MaxComponents = 4

// Component describes one color component of the frame.
type Component struct {
	ID byte
	H  int // horizontal sampling factor, 1..4
	V  int // vertical sampling factor, 1..4
	TQ byte
	// Entropy-coding table selectors from the SOS header.
	TD byte
	TA byte
	// Geometry derived from the frame header; all counts in 8x8 blocks.
	BlocksWide int // padded to a multiple of H for interleaved scans
	BlocksHigh int // padded to a multiple of V
}

// File is a parsed baseline JPEG: the verbatim header bytes, the
// entropy-coded scan bytes, the verbatim trailer, and the decoded structure
// needed to re-create the scan.
type File struct {
	// Header holds every byte from SOI through the end of the SOS header —
	// the bytes Lepton stores verbatim (zlib-compressed) in its container.
	Header []byte
	// ScanData holds the entropy-coded segment, including restart markers
	// and stuffing bytes, up to (not including) the terminating marker.
	ScanData []byte
	// Trailer holds everything from the terminating marker (normally EOI)
	// to the end of the file, stored verbatim.
	Trailer []byte

	Width, Height   int
	Components      []Component
	HMax, VMax      int
	MCUsWide        int
	MCUsHigh        int
	RestartInterval int

	Quant   [4][64]uint16 // raster order
	QuantOK [4]bool
	DC      [4]*huffman.Spec
	AC      [4]*huffman.Spec
}

// TotalMCUs returns the number of MCUs in the scan.
func (f *File) TotalMCUs() int { return f.MCUsWide * f.MCUsHigh }

// BlocksPerMCU returns the number of coefficient blocks per MCU.
func (f *File) BlocksPerMCU() int {
	if len(f.Components) == 1 {
		return 1
	}
	n := 0
	for _, c := range f.Components {
		n += c.H * c.V
	}
	return n
}

// CoefficientCount returns the total number of stored DCT coefficients.
func (f *File) CoefficientCount() int {
	n := 0
	for _, c := range f.Components {
		n += c.BlocksWide * c.BlocksHigh * 64
	}
	return n
}

func u16(b []byte) int { return int(b[0])<<8 | int(b[1]) }

// Parse splits a JPEG file into header, scan, and trailer, decoding the
// structural segments needed for entropy coding. It does not decode the
// scan itself; see DecodeScan.
//
// Budget limits (paper §5.1, §6.2): memLimit bounds the coefficient memory
// the caller is willing to spend. Pass 0 for no limit.
func Parse(data []byte, memLimit int64) (*File, error) {
	return parse(data, memLimit, false, false)
}

// ParseOpt is Parse with the optional CMYK capability enabled.
func ParseOpt(data []byte, memLimit int64, allowCMYK bool) (*File, error) {
	return parse(data, memLimit, false, allowCMYK)
}

// ParseHeader parses a header-only blob (SOI through the SOS header, as
// stored in a Lepton container) and returns a File with empty ScanData.
// Four-component headers are accepted: a stored container was admitted by
// an encoder that allowed them.
func ParseHeader(data []byte) (*File, error) {
	return parse(data, 0, true, true)
}

func parse(data []byte, memLimit int64, headerOnly, allowCMYK bool) (*File, error) {
	if len(data) < 4 || data[0] != 0xFF || data[1] != mSOI {
		return nil, reject(ReasonNotImage, "missing SOI marker")
	}
	f := &File{}
	sawSOF := false
	seenSegment := false
	pos := 2
	for {
		// Skip fill bytes (0xFF may be repeated before a marker).
		if pos >= len(data) {
			return nil, reject(ReasonTruncated, "EOF before SOS")
		}
		if data[pos] != 0xFF {
			if !seenSegment {
				// Garbage right after SOI: the file merely starts with the
				// JPEG magic and has no structure ("Not an image", §6.2).
				return nil, reject(ReasonNotImage, "no JPEG structure after SOI")
			}
			return nil, reject(ReasonUnsupported, "garbage byte %#02x at %d", data[pos], pos)
		}
		seenSegment = true
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
			segEnd, err := f.parseSOS(data, pos)
			if err != nil {
				return nil, err
			}
			f.Header = data[:segEnd]
			if headerOnly {
				return f, nil
			}
			// The entropy-coded segment runs until a marker other than RST.
			scanEnd, err := findScanEnd(data, segEnd)
			if err != nil {
				return nil, err
			}
			f.ScanData = data[segEnd:scanEnd]
			f.Trailer = data[scanEnd:]
			return f, nil
		case marker == mEOI:
			return nil, reject(ReasonUnsupported, "EOI before SOS (header-only file)")
		case marker == mSOF2 || marker == mSOFA:
			return nil, reject(ReasonProgressive, "progressive SOF%#02x", marker)
		case marker == mSOF3 || marker == mSOF5 || marker == mSOF6 ||
			marker == mSOF7 || marker == mSOF9 || marker == mSOFB ||
			marker == mSOFD || marker == mSOFE || marker == mSOFF ||
			marker == mDAC:
			return nil, reject(ReasonUnsupported, "SOF/DAC marker %#02x", marker)
		case marker == mSOF0 || marker == mSOF1:
			n, err := f.parseSOF(data, pos, memLimit, allowCMYK)
			if err != nil {
				return nil, err
			}
			sawSOF = true
			pos += n
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
		case marker >= mRST0 && marker <= mRST7:
			return nil, reject(ReasonUnsupported, "restart marker outside scan")
		case marker == mSOI:
			return nil, reject(ReasonUnsupported, "nested SOI")
		case marker == mDNL:
			return nil, reject(ReasonUnsupported, "DNL marker")
		case marker == 0x01 || marker == 0x00:
			// TEM or stuffed zero outside a scan: skip, no payload.
		default:
			// Segments with a 16-bit length: APPn, COM, and others.
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

func (f *File) parseSOF(data []byte, pos int, memLimit int64, allowCMYK bool) (int, error) {
	if pos+2 > len(data) {
		return 0, reject(ReasonTruncated, "EOF in SOF")
	}
	l := u16(data[pos:])
	if pos+l > len(data) || l < 8 {
		return 0, reject(ReasonTruncated, "SOF overruns file")
	}
	seg := data[pos+2 : pos+l]
	precision := int(seg[0])
	if precision != 8 {
		return 0, reject(ReasonUnsupported, "%d-bit precision", precision)
	}
	f.Height = u16(seg[1:])
	f.Width = u16(seg[3:])
	if f.Width == 0 || f.Height == 0 {
		return 0, reject(ReasonUnsupported, "zero dimension %dx%d", f.Width, f.Height)
	}
	nc := int(seg[5])
	if nc == 4 && !allowCMYK {
		return 0, reject(ReasonCMYK, "4 components")
	}
	if nc != 1 && nc != 3 && nc != 4 {
		return 0, reject(ReasonUnsupported, "%d components", nc)
	}
	if len(seg) < 6+3*nc {
		return 0, reject(ReasonTruncated, "short SOF")
	}
	f.HMax, f.VMax = 1, 1
	for i := 0; i < nc; i++ {
		c := Component{
			ID: seg[6+3*i],
			H:  int(seg[7+3*i] >> 4),
			V:  int(seg[7+3*i] & 15),
			TQ: seg[8+3*i],
		}
		if c.H < 1 || c.H > 4 || c.V < 1 || c.V > 4 {
			return 0, reject(ReasonUnsupported, "sampling %dx%d", c.H, c.V)
		}
		if c.TQ > 3 {
			return 0, reject(ReasonUnsupported, "quant table id %d", c.TQ)
		}
		if c.H > f.HMax {
			f.HMax = c.H
		}
		if c.V > f.VMax {
			f.VMax = c.V
		}
		f.Components = append(f.Components, c)
	}
	// The deployed Lepton keeps a bounded slice of the framebuffer per
	// component; outsized chroma subsampling ratios overflow it (§6.2).
	for i := range f.Components {
		c := &f.Components[i]
		if f.HMax/c.H > 2 || f.VMax/c.V > 2 {
			return 0, reject(ReasonChromaSub, "subsampling ratio %d:%d", f.HMax/c.H, f.VMax/c.V)
		}
	}
	f.MCUsWide = (f.Width + 8*f.HMax - 1) / (8 * f.HMax)
	f.MCUsHigh = (f.Height + 8*f.VMax - 1) / (8 * f.VMax)
	for i := range f.Components {
		c := &f.Components[i]
		if len(f.Components) == 1 {
			// Non-interleaved single-component scan: the MCU is one block
			// and there is no padding to sampling-factor multiples.
			c.BlocksWide = (f.Width + 7) / 8
			c.BlocksHigh = (f.Height + 7) / 8
			f.MCUsWide = c.BlocksWide
			f.MCUsHigh = c.BlocksHigh
		} else {
			c.BlocksWide = f.MCUsWide * c.H
			c.BlocksHigh = f.MCUsHigh * c.V
		}
	}
	if memLimit > 0 {
		// The streaming pipelines hold a sliding window of block rows per
		// component — (V+1 rows) × width — never whole planes, so the
		// budget bounds that working set. It scales with image width only;
		// a tall image streams through row by row (§5.1). Callers layer
		// per-live-segment multiples on top (see core.DecodeWindowBytes); this
		// is the single-segment floor no decode can go below.
		var winBytes int64
		for _, c := range f.Components {
			v := c.V
			if len(f.Components) == 1 {
				v = 1
			}
			winBytes += int64(v+1) * int64(c.BlocksWide) * 64 * 2
		}
		if winBytes > memLimit {
			return 0, reject(ReasonMemDecode, "row windows need %d bytes > %d budget", winBytes, memLimit)
		}
	}
	return l, nil
}

func (f *File) parseDQT(data []byte, pos int) (int, error) {
	if pos+2 > len(data) {
		return 0, reject(ReasonTruncated, "EOF in DQT")
	}
	l := u16(data[pos:])
	if pos+l > len(data) || l < 2 {
		return 0, reject(ReasonTruncated, "DQT overruns file")
	}
	seg := data[pos+2 : pos+l]
	for len(seg) > 0 {
		pq := seg[0] >> 4
		tq := seg[0] & 15
		if tq > 3 || pq > 1 {
			return 0, reject(ReasonUnsupported, "DQT pq=%d tq=%d", pq, tq)
		}
		n := 64
		if pq == 1 {
			n = 128
		}
		if len(seg) < 1+n {
			return 0, reject(ReasonTruncated, "short DQT table")
		}
		for i := 0; i < 64; i++ {
			var v uint16
			if pq == 1 {
				v = uint16(seg[1+2*i])<<8 | uint16(seg[2+2*i])
			} else {
				v = uint16(seg[1+i])
			}
			if v == 0 {
				return 0, reject(ReasonUnsupported, "zero quantizer")
			}
			// DQT entries are in zigzag order; store raster.
			f.Quant[tq][zigzagRaster(i)] = v
		}
		f.QuantOK[tq] = true
		seg = seg[1+n:]
	}
	return l, nil
}

func (f *File) parseDHT(data []byte, pos int) (int, error) {
	if pos+2 > len(data) {
		return 0, reject(ReasonTruncated, "EOF in DHT")
	}
	l := u16(data[pos:])
	if pos+l > len(data) || l < 2 {
		return 0, reject(ReasonTruncated, "DHT overruns file")
	}
	seg := data[pos+2 : pos+l]
	for len(seg) > 0 {
		if len(seg) < 17 {
			return 0, reject(ReasonTruncated, "short DHT")
		}
		tc := seg[0] >> 4
		th := seg[0] & 15
		if tc > 1 || th > 3 {
			return 0, reject(ReasonUnsupported, "DHT tc=%d th=%d", tc, th)
		}
		spec := &huffman.Spec{}
		total := 0
		for i := 0; i < 16; i++ {
			spec.Counts[i] = seg[1+i]
			total += int(seg[1+i])
		}
		// The fuzzing incident (§6.7): validate that the table payload
		// actually fits before reading symbols.
		if len(seg) < 17+total {
			return 0, reject(ReasonUnsupported, "DHT symbols overrun segment")
		}
		spec.Symbols = append([]byte(nil), seg[17:17+total]...)
		if err := spec.Validate(); err != nil {
			return 0, reject(ReasonUnsupported, "invalid Huffman table: %v", err)
		}
		if tc == 0 {
			f.DC[th] = spec
		} else {
			f.AC[th] = spec
		}
		seg = seg[17+total:]
	}
	return l, nil
}

// parseSOS validates the scan header and returns the file offset where the
// entropy-coded data begins.
func (f *File) parseSOS(data []byte, pos int) (int, error) {
	if pos+2 > len(data) {
		return 0, reject(ReasonTruncated, "EOF in SOS")
	}
	l := u16(data[pos:])
	if pos+l > len(data) || l < 3 {
		return 0, reject(ReasonTruncated, "SOS overruns file")
	}
	seg := data[pos+2 : pos+l]
	ns := int(seg[0])
	if ns != len(f.Components) {
		return 0, reject(ReasonUnsupported, "scan has %d of %d components", ns, len(f.Components))
	}
	if len(seg) < 1+2*ns+3 {
		return 0, reject(ReasonTruncated, "short SOS")
	}
	for i := 0; i < ns; i++ {
		cs := seg[1+2*i]
		td := seg[2+2*i] >> 4
		ta := seg[2+2*i] & 15
		found := false
		for j := range f.Components {
			if f.Components[j].ID == cs {
				if td > 3 || ta > 3 {
					return 0, reject(ReasonUnsupported, "table selector out of range")
				}
				f.Components[j].TD = td
				f.Components[j].TA = ta
				found = true
				break
			}
		}
		if !found {
			return 0, reject(ReasonUnsupported, "scan component %d not in frame", cs)
		}
	}
	ss, se, ahal := seg[1+2*ns], seg[2+2*ns], seg[3+2*ns]
	if ss != 0 || se != 63 || ahal != 0 {
		return 0, reject(ReasonUnsupported, "spectral selection %d..%d ah/al %d", ss, se, ahal)
	}
	// Every component must have its tables defined.
	for _, c := range f.Components {
		if !f.QuantOK[c.TQ] {
			return 0, reject(ReasonUnsupported, "missing quant table %d", c.TQ)
		}
		if f.DC[c.TD] == nil || f.AC[c.TA] == nil {
			return 0, reject(ReasonUnsupported, "missing Huffman table")
		}
	}
	return pos + l, nil
}

// findScanEnd scans the entropy-coded segment for the terminating marker
// (any marker except RST0-7 and stuffed 0xFF00).
func findScanEnd(data []byte, start int) (int, error) {
	i := start
	for i+1 < len(data) {
		if data[i] != 0xFF {
			i++
			continue
		}
		m := data[i+1]
		if m == 0x00 || (m >= mRST0 && m <= mRST7) {
			i += 2
			continue
		}
		return i, nil
	}
	return 0, reject(ReasonTruncated, "no marker terminates the scan")
}

func zigzagRaster(z int) int {
	return int(zigzagTable[z])
}

// zigzagTable duplicates dct.Zigzag to keep this package's wire-format
// handling self-contained.
var zigzagTable = [64]uint8{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}
