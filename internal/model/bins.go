// Package model implements Lepton's adaptive probability model (paper §3.2,
// §3.3, Appendix A.2): the arrangement of statistic bins and the predictors
// that select a bin for every binary decision. The model avoids all global
// operations (no sorting) so segments can be coded independently and in
// parallel; long-range correlation is captured by expanding the bin space
// instead (§3.2).
//
// Every bin access goes through Go's bounds-checked arrays — the moral
// equivalent of the bounds-checked bin class the paper introduced after the
// reversed-index incident (§6.1).
package model

import (
	"math/bits"

	"lepton/internal/arith"
)

const (
	// maxExp bounds the unary exponent of the Exp-Golomb code: magnitudes
	// are < 2^13 (DC error terms reach ±4095).
	maxExp = 14
	// avgBuckets is the number of log-magnitude buckets for the 7x7
	// neighborhood-average context.
	avgBuckets = 10
	// nBuckets is the number of log1.59 buckets for nonzero-count contexts.
	nBuckets = 10
	// predBuckets is the number of signed-log buckets for the Lakhani edge
	// predictor context.
	predBuckets = 22
	// confBuckets is the number of DC prediction-confidence buckets.
	confBuckets = 17
)

// magBins hold the bins for one Exp-Golomb magnitude context: unary exponent
// bits, a sign bit, and residual ("noise") bits indexed by (exponent,
// position).
type magBins struct {
	exp  [maxExp]arith.Bin
	sign arith.Bin
}

// resBins are residual-bit bins shared across a coefficient class, indexed
// by exponent and bit position.
type resBins [maxExp][13]arith.Bin

// chanBins is the full bin set for one color channel. Sizes follow A.2; the
// three-dimensional 7x7 context (zigzag index × neighborhood magnitude ×
// remaining-nonzeros bucket) is what replaces PackJPG's global sort.
type chanBins struct {
	// nz77 codes the 6-bit count of nonzero 7x7 coefficients with a binary
	// tree (63 internal nodes) per neighborhood bucket.
	nz77 [nBuckets][64]arith.Bin
	// coef77 contexts: 49 zigzag positions × avg magnitude × remaining-n.
	coef77 [49][avgBuckets][nBuckets]magBins
	res77  resBins
	// nzEdge codes the 3-bit nonzero count of each edge orientation, with
	// the current block's 7x7 count as context.
	nzEdge [2][8][8]arith.Bin
	// coefEdge contexts: orientation (0 = 7x1 row, 1 = 1x7 column) × index
	// 1..7 × Lakhani prediction bucket.
	coefEdge [2][7][predBuckets]magBins
	resEdge  resBins
	// dc contexts: prediction confidence buckets.
	dc    [confBuckets]magBins
	resDC resBins
}

// BinsPerChannel is the number of statistic bins in one channel's model,
// exported for the memory accounting in Figure 3.
const BinsPerChannel = nBuckets*64 +
	49*avgBuckets*nBuckets*(maxExp+1) +
	maxExp*13 +
	2*8*8 +
	2*7*predBuckets*(maxExp+1) +
	maxExp*13 +
	confBuckets*(maxExp+1) +
	maxExp*13

// Coefficient classes for the per-component size accounting that
// reproduces Figure 4. Nonzero-count side information is folded into the
// class it describes, matching the paper's categories.
const (
	Class77   = iota // 7x7 AC coefficients (and their count)
	ClassEdge        // 7x1 / 1x7 AC coefficients (and their counts)
	ClassDC          // DC error terms
	NumClasses
)

// ClassName labels each class as in Figure 4.
func ClassName(c int) string {
	switch c {
	case Class77:
		return "7x7 AC"
	case ClassEdge:
		return "7x1/1x7"
	case ClassDC:
		return "DC"
	}
	return "?"
}

// Stats accumulates the Shannon information (in bits) emitted per class on
// the encode path. It is observability only — never part of the stream.
type Stats struct {
	Bits [NumClasses]float64
}

// emitter is the single code path shared by encoder and decoder: exactly
// one of e or d is non-nil. Funneling every binary decision through one
// type guarantees both directions derive identical contexts — the class
// of divergence behind the paper's §6.7 "single- vs multi-threaded" alarm.
// codeVal and codeTree branch on the direction once per value rather than
// once per bit, so the inner loops call the fused arithmetic-coder bodies
// directly.
type emitter struct {
	e     *arith.Encoder
	d     *arith.Decoder
	stats *Stats
	cls   int
}

// ebit encodes one bit, accumulating Shannon information when stats
// collection is on. Encode-side only.
func (em *emitter) ebit(bin *arith.Bin, bit int) {
	if em.stats != nil {
		p0 := float64(bin.Prob()) / 4096
		p := p0
		if bit != 0 {
			p = 1 - p0
		}
		em.stats.Bits[em.cls] += -log2(p)
	}
	em.e.Encode(bin, bit)
}

func (em *emitter) bit(bin *arith.Bin, bit int) int {
	if em.e != nil {
		em.ebit(bin, bit)
		return bit
	}
	return em.d.Decode(bin)
}

// codeVal transports a signed magnitude through an Exp-Golomb layered
// binary code: unary exponent (adaptive per position), sign, then the
// exponent-1 residual bits below the implicit leading one. On decode the
// input v is ignored and the decoded value returned.
func (em *emitter) codeVal(mb *magBins, rb *resBins, v int32) int32 {
	if em.e != nil {
		return em.encodeVal(mb, rb, v)
	}
	return em.decodeVal(mb, rb)
}

func (em *emitter) encodeVal(mb *magBins, rb *resBins, v int32) int32 {
	mag := uint32(v)
	neg := 0
	if v < 0 {
		mag = -mag
		neg = 1
	}
	l := bits.Len32(mag)
	for i := 0; i < l; i++ {
		em.ebit(&mb.exp[i], 1)
	}
	if l < maxExp {
		em.ebit(&mb.exp[l], 0)
	}
	if l == 0 {
		return 0
	}
	em.ebit(&mb.sign, neg)
	for i := l - 2; i >= 0; i-- {
		em.ebit(&rb[l][i], int(mag>>uint(i))&1)
	}
	return v
}

func (em *emitter) decodeVal(mb *magBins, rb *resBins) int32 {
	d := em.d
	l := 0
	for l < maxExp {
		if d.Decode(&mb.exp[l]) == 0 {
			break
		}
		l++
	}
	if l == maxExp {
		// Only a corrupt stream reaches the unary cap (the encoder's
		// magnitudes are < 2^13). Clamp; the caller's round-trip or
		// range checks reject the block.
		l = maxExp - 1
	}
	if l == 0 {
		return 0
	}
	neg := d.Decode(&mb.sign)
	out := int32(1)
	for i := l - 2; i >= 0; i-- {
		out = out<<1 | int32(d.Decode(&rb[l][i]))
	}
	if neg == 1 {
		return -out
	}
	return out
}

// codeTree transports an n-bit integer MSB-first through a binary-tree bin
// array of size 2^n (node 1 is the root). Values are always < 2^nbits by
// construction, so the encode direction returns v unchanged.
func (em *emitter) codeTree(bins []arith.Bin, v, nbits int) int {
	if em.e != nil {
		node := 1
		for i := nbits - 1; i >= 0; i-- {
			bit := (v >> uint(i)) & 1
			em.ebit(&bins[node], bit)
			node = node<<1 | bit
		}
		return v
	}
	d := em.d
	node := 1
	out := 0
	for i := 0; i < nbits; i++ {
		bit := d.Decode(&bins[node])
		out = out<<1 | bit
		node = node<<1 | bit
	}
	return out
}

// log2 avoids importing math for one function; accuracy is ample for
// statistics.
func log2(x float64) float64 {
	// Decompose x = m * 2^e with m in [1,2), then a small series for ln m.
	if x <= 0 {
		return -64
	}
	e := 0
	for x < 1 {
		x *= 2
		e--
	}
	for x >= 2 {
		x /= 2
		e++
	}
	// ln(m) via atanh series: ln m = 2*atanh((m-1)/(m+1)).
	t := (x - 1) / (x + 1)
	t2 := t * t
	ln := 2 * t * (1 + t2/3 + t2*t2/5 + t2*t2*t2/7 + t2*t2*t2*t2/9)
	const invLn2 = 1.4426950408889634
	return float64(e) + ln*invLn2
}

// ilog159 returns floor(log base 1.59 of x), clamped to [0, nBuckets-1] —
// the bucketing function of A.2.1.
func ilog159(x int32) int {
	if x <= 0 {
		return 0
	}
	// Thresholds 1.59^k rounded: 1, 1.59, 2.5, 4.0, 6.4, 10.2, 16.2, 25.7,
	// 40.9, 65.1.
	switch {
	case x >= 65:
		return 9
	case x >= 41:
		return 8
	case x >= 26:
		return 7
	case x >= 17:
		return 6
	case x >= 11:
		return 5
	case x >= 7:
		return 4
	case x >= 4:
		return 3
	case x >= 3:
		return 2
	case x >= 2:
		return 1
	default:
		return 0
	}
}

// ilog2 returns the bit length of |x| clamped to limit-1.
func ilog2(x int32, limit int) int {
	mag := uint32(x)
	if x < 0 {
		mag = -mag
	}
	l := bits.Len32(mag)
	if l >= limit {
		l = limit - 1
	}
	return l
}

// predBucket maps a predicted coefficient value to a signed-log context
// bucket in [0, predBuckets).
func predBucket(p int32) int {
	if p == 0 {
		return 0
	}
	s := ilog2(p, 11) // 1..10
	b := s * 2
	if p < 0 {
		b++
	}
	if b >= predBuckets {
		b = predBuckets - 1
	}
	return b
}
