// Package huffman implements the canonical Huffman codes used by baseline
// JPEG: decoder tables built from a DHT-style specification (code counts per
// length plus symbol list), matching encoder tables, and optimal table
// construction from symbol frequencies (used by the JPEGrescan-style
// baseline).
//
// Decoding is peek-table driven: a single 2^8-entry lookup maps the next
// eight lookahead bits to (symbol, code length) for every code of length
// <= 8 — which covers the overwhelming majority of symbols in real DHT
// tables — and the canonical bit-by-bit walk remains as the slow path for
// longer codes and for lookaheads the bit reader cannot serve cheaply
// (stuffed 0xFF bytes, markers, end of input).
package huffman

import (
	"errors"
	"fmt"

	"lepton/internal/bitio"
)

// MaxCodeLength is the longest Huffman code permitted by baseline JPEG.
const MaxCodeLength = 16

// Spec is the DHT wire representation of a Huffman table: the number of
// codes of each length 1..16 and the symbol values in code order.
type Spec struct {
	Counts  [MaxCodeLength]uint8
	Symbols []byte
}

// Validate checks the structural validity of a Spec: the code space must not
// be oversubscribed and the symbol list must match the counts. Baseline JPEG
// Huffman tables for scans must also leave one codepoint free (the all-ones
// prefix rule), but many real encoders violate that, so it is not enforced.
func (s *Spec) Validate() error {
	total := 0
	for _, c := range s.Counts {
		total += int(c)
	}
	code := 0
	for l := 1; l <= MaxCodeLength; l++ {
		code += int(s.Counts[l-1])
		if code > 1<<l {
			return fmt.Errorf("huffman: oversubscribed code space at length %d", l)
		}
		code <<= 1
	}
	if total != len(s.Symbols) {
		return fmt.Errorf("huffman: counts sum %d != %d symbols", total, len(s.Symbols))
	}
	if total == 0 {
		return errors.New("huffman: empty table")
	}
	if total > 256 {
		return fmt.Errorf("huffman: too many symbols: %d", total)
	}
	return nil
}

// Code is a canonical Huffman codeword.
type Code struct {
	Bits uint16
	Len  uint8
}

// Encoder maps symbols to codewords.
type Encoder struct {
	codes [256]Code
}

// Decoder decodes codewords bit by bit using a fast 8-bit first-level lookup
// table with a slow path for longer codes.
type Decoder struct {
	// fast[b] holds, for an 8-bit lookahead b, the decoded symbol and code
	// length if the code is <= 8 bits; length 0 means slow path.
	fast [256]struct {
		sym byte
		len uint8
	}
	// Canonical decoding state for the slow path.
	minCode  [MaxCodeLength + 1]int32
	maxCode  [MaxCodeLength + 1]int32 // -1 if no codes of this length
	valPtr   [MaxCodeLength + 1]int32
	symbols  []byte
	maxLen   uint8
	numCodes int
}

// NewEncoder builds encoder codewords from a validated Spec.
func NewEncoder(s *Spec) (*Encoder, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	e := &Encoder{}
	code := uint16(0)
	k := 0
	for l := 1; l <= MaxCodeLength; l++ {
		for i := 0; i < int(s.Counts[l-1]); i++ {
			e.codes[s.Symbols[k]] = Code{Bits: code, Len: uint8(l)}
			code++
			k++
		}
		code <<= 1
	}
	return e, nil
}

// Lookup returns the codeword for sym. A zero-length code means the symbol
// is not in the table.
func (e *Encoder) Lookup(sym byte) Code { return e.codes[sym] }

// Encode writes the codeword for sym to w. It returns an error if sym has no
// code in the table.
func (e *Encoder) Encode(w *bitio.Writer, sym byte) error {
	c := e.codes[sym]
	if c.Len == 0 {
		return fmt.Errorf("huffman: symbol %#02x has no code", sym)
	}
	w.WriteBits(uint32(c.Bits), c.Len)
	return nil
}

// NewDecoder builds decoding tables from a validated Spec. A table that
// names one symbol twice is refused: its two codes decode to the same
// symbol, and an Encoder keeps only the last, so data read through the
// other code could not be written back.
func NewDecoder(s *Spec) (*Decoder, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var seen [256]bool
	for _, sym := range s.Symbols {
		if seen[sym] {
			return nil, fmt.Errorf("huffman: symbol %#02x listed twice", sym)
		}
		seen[sym] = true
	}
	d := &Decoder{symbols: append([]byte(nil), s.Symbols...)}
	code := int32(0)
	k := int32(0)
	for l := 1; l <= MaxCodeLength; l++ {
		d.valPtr[l] = k
		d.minCode[l] = code
		if s.Counts[l-1] == 0 {
			d.maxCode[l] = -1
		} else {
			code += int32(s.Counts[l-1])
			k += int32(s.Counts[l-1])
			d.maxCode[l] = code - 1
			d.maxLen = uint8(l)
		}
		code <<= 1
	}
	d.numCodes = int(k)
	// Fast table for codes of length <= 8.
	code = 0
	k = 0
	for l := 1; l <= 8; l++ {
		for i := 0; i < int(s.Counts[l-1]); i++ {
			sym := s.Symbols[k]
			lo := code << (8 - l)
			hi := lo + 1<<(8-l)
			for b := lo; b < hi; b++ {
				d.fast[b].sym = sym
				d.fast[b].len = uint8(l)
			}
			code++
			k++
		}
		code <<= 1
	}
	return d, nil
}

// PeekSym looks up the symbol for an 8-bit lookahead b. A zero returned
// length means the code is longer than eight bits (or b is not a valid
// prefix) and the caller must take the canonical slow path. Callers fuse
// this with bitio.Reader.PeekBits to decode symbol and value bits from one
// lookahead word.
func (d *Decoder) PeekSym(b uint8) (sym byte, n uint8) {
	f := &d.fast[b]
	return f.sym, f.len
}

// Decode reads one symbol from r: a single peek-table lookup when the reader
// can serve an 8-bit lookahead, the canonical bit-by-bit walk otherwise.
func (d *Decoder) Decode(r *bitio.Reader) (byte, error) {
	if b, ok := r.PeekBits(8); ok {
		if f := &d.fast[b]; f.len != 0 {
			r.SkipBits(f.len)
			return f.sym, nil
		}
	}
	return d.decodeSlow(r)
}

// decodeSlow is the canonical bit-by-bit decode, used for codes longer than
// the peek table covers and wherever the lookahead crosses stuffing bytes,
// markers, or end of input — its error handling is authoritative.
func (d *Decoder) decodeSlow(r *bitio.Reader) (byte, error) {
	code := int32(0)
	for l := 1; l <= int(d.maxLen); l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | int32(b)
		if d.maxCode[l] >= 0 && code <= d.maxCode[l] {
			return d.symbols[d.valPtr[l]+code-d.minCode[l]], nil
		}
	}
	return 0, errors.New("huffman: invalid code")
}

// NumCodes returns the number of symbols in the table.
func (d *Decoder) NumCodes() int { return d.numCodes }

// BuildOptimal constructs a length-limited canonical Huffman Spec from symbol
// frequencies, following the JPEG Annex K.2 procedure (including the
// reserved all-ones codepoint, which is why a dummy frequency-1 symbol 256 is
// added). Symbols with zero frequency are omitted. This is the core of the
// JPEGrescan/MozJPEG-style "optimize Huffman tables" baseline.
func BuildOptimal(freq *[256]int64) (*Spec, error) {
	var f [257]int64
	for i, v := range freq {
		if v < 0 {
			return nil, fmt.Errorf("huffman: negative frequency for symbol %d", i)
		}
		f[i] = v
	}
	f[256] = 1 // reserve one codepoint so no real symbol is all ones
	var codesize [257]int
	var others [257]int
	for i := range others {
		others[i] = -1
	}
	// Repeatedly merge the two least-frequent nonzero entries. Ties prefer
	// the larger index so the reserved symbol 256 sinks to the deepest leaf.
	for {
		v1 := -1
		for i := 0; i <= 256; i++ {
			if f[i] != 0 && (v1 < 0 || f[i] <= f[v1]) {
				v1 = i
			}
		}
		v2 := -1
		for i := 0; i <= 256; i++ {
			if i != v1 && f[i] != 0 && (v2 < 0 || f[i] <= f[v2]) {
				v2 = i
			}
		}
		if v2 < 0 {
			break // one tree left
		}
		if v2 > v1 {
			v1, v2 = v2, v1
		}
		f[v1] += f[v2]
		f[v2] = 0
		codesize[v1]++
		for others[v1] >= 0 {
			v1 = others[v1]
			codesize[v1]++
		}
		others[v1] = v2
		codesize[v2]++
		for others[v2] >= 0 {
			v2 = others[v2]
			codesize[v2]++
		}
	}
	var bits [64]int // count of codes per length, generous headroom
	maxLen := 0
	for i := 0; i <= 256; i++ {
		if codesize[i] > 0 {
			if codesize[i] >= len(bits) {
				return nil, errors.New("huffman: pathological code length")
			}
			bits[codesize[i]]++
			if codesize[i] > maxLen {
				maxLen = codesize[i]
			}
		}
	}
	// Limit code lengths to 16 (Annex K.3 adjust_bits).
	for l := maxLen; l > MaxCodeLength; l-- {
		for bits[l] > 0 {
			j := l - 2
			for bits[j] == 0 {
				j--
			}
			bits[l] -= 2
			bits[l-1]++
			bits[j+1] += 2
			bits[j]--
		}
	}
	// Remove the reserved codepoint from the longest used length.
	for l := MaxCodeLength; l >= 1; l-- {
		if bits[l] > 0 {
			bits[l]--
			break
		}
	}
	// Sort symbols by (code length, symbol value).
	spec := &Spec{}
	for l := 1; l <= MaxCodeLength; l++ {
		spec.Counts[l-1] = uint8(bits[l])
	}
	for l := 1; l <= MaxCodeLength; l++ {
		for s := 0; s < 256; s++ {
			if codesize[s] == l {
				spec.Symbols = append(spec.Symbols, byte(s))
			}
		}
	}
	// The reserved symbol 256 is dropped; recount lengths to stay consistent
	// after the K.3 adjustment moved codes between lengths.
	total := 0
	for _, c := range spec.Counts {
		total += int(c)
	}
	if total != len(spec.Symbols) {
		// The adjustment redistributed lengths; rebuild the symbol order by
		// assigning the shortest codes to the most frequent symbols.
		type fs struct {
			sym  int
			freq int64
		}
		var syms []fs
		for s := 0; s < 256; s++ {
			if freq[s] > 0 {
				syms = append(syms, fs{s, freq[s]})
			}
		}
		// Insertion sort by descending frequency, then ascending symbol.
		for i := 1; i < len(syms); i++ {
			for j := i; j > 0 && (syms[j].freq > syms[j-1].freq ||
				(syms[j].freq == syms[j-1].freq && syms[j].sym < syms[j-1].sym)); j-- {
				syms[j], syms[j-1] = syms[j-1], syms[j]
			}
		}
		if total != len(syms) {
			return nil, fmt.Errorf("huffman: internal length mismatch %d != %d", total, len(syms))
		}
		spec.Symbols = spec.Symbols[:0]
		for _, s := range syms {
			spec.Symbols = append(spec.Symbols, byte(s.sym))
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}
