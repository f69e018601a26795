package jpeg

import (
	"fmt"

	"lepton/internal/bitio"
	"lepton/internal/huffman"
)

// Progressive scan re-encoding. For spectral-selection scans, the encoding
// of each scan is fully determined by the coefficients, the scan script,
// and the maximal-EOB-run convention every known encoder uses — so
// re-encoding is bit-exact.

// encodeProgDC regenerates a DC scan's entropy bytes.
func encodeProgDC(f *File, scan *ProgScan, coeff [][]int16) ([]byte, error) {
	w := bitio.NewWriter()
	enc := map[int]*huffman.Encoder{}
	for _, ci := range scan.Comps {
		td := f.Components[ci].TD
		e, err := huffman.NewEncoder(f.DC[td])
		if err != nil {
			return nil, err
		}
		enc[ci] = e
	}
	var prevDC [MaxComponents]int16
	ri := f.RestartInterval
	total, iter := progMCUIter(f, scan)
	rstDone := 0
	for m := 0; m < total; m++ {
		if ri > 0 && m > 0 && m%ri == 0 && rstDone < scan.RSTCount {
			w.AlignPad(scan.PadBit)
			w.WriteMarker(mRST0 + byte(rstDone%8))
			rstDone++
			prevDC = [MaxComponents]int16{}
		}
		for _, bl := range iter(m) {
			dc := coeff[bl.comp][bl.off]
			diff := int32(dc) - int32(prevDC[bl.comp])
			prevDC[bl.comp] = dc
			s := category(diff)
			if err := enc[bl.comp].Encode(w, s); err != nil {
				return nil, fmt.Errorf("progressive DC: %w", err)
			}
			if s > 0 {
				v := diff
				if v < 0 {
					v += int32(1<<s) - 1
				}
				w.WriteBits(uint32(v), s)
			}
		}
	}
	w.AlignPad(scan.PadBit)
	w.AppendRaw(scan.Tail)
	return w.Bytes(), nil
}

// encodeProgAC regenerates an AC band scan with maximal EOB runs (capped
// at 0x7FFF, the T.81 limit).
func encodeProgAC(f *File, scan *ProgScan, plane []int16, ci int) ([]byte, error) {
	ta := f.Components[ci].TA
	enc, err := huffman.NewEncoder(f.AC[ta])
	if err != nil {
		return nil, err
	}
	w := bitio.NewWriter()
	bw := f.Components[ci].BlocksWide
	uw, uh := unpaddedBlocks(f, ci)
	ri := f.RestartInterval
	eobrun := 0
	rstDone := 0

	flushEOB := func() error {
		for eobrun > 0 {
			n := eobrun
			if n > 0x7FFF {
				n = 0x7FFF
			}
			r := 0
			for (1 << (r + 1)) <= n {
				r++
			}
			if err := enc.Encode(w, byte(r<<4)); err != nil {
				return fmt.Errorf("EOB run: %w", err)
			}
			w.WriteBits(uint32(n-(1<<r)), uint8(r))
			eobrun -= n
		}
		return nil
	}

	for m := 0; m < uw*uh; m++ {
		if ri > 0 && m > 0 && m%ri == 0 {
			if err := flushEOB(); err != nil {
				return nil, err
			}
			if rstDone < scan.RSTCount {
				w.AlignPad(scan.PadBit)
				w.WriteMarker(mRST0 + byte(rstDone%8))
				rstDone++
			}
		}
		row := m / uw
		col := m % uw
		base := (row*bw + col) * 64
		// Find the last nonzero coefficient in the band.
		last := scan.Ss - 1
		for k := scan.Se; k >= scan.Ss; k-- {
			if plane[base+int(zigzagTable[k])] != 0 {
				last = k
				break
			}
		}
		if last < scan.Ss {
			eobrun++
			if eobrun == 0x7FFF {
				if err := flushEOB(); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err := flushEOB(); err != nil {
			return nil, err
		}
		run := 0
		for k := scan.Ss; k <= last; k++ {
			v := int32(plane[base+int(zigzagTable[k])])
			if v == 0 {
				run++
				continue
			}
			for run >= 16 {
				if err := enc.Encode(w, 0xF0); err != nil {
					return nil, fmt.Errorf("ZRL: %w", err)
				}
				run -= 16
			}
			size := category(v)
			if size > 10 {
				return nil, reject(ReasonACRange, "AC magnitude %d", v)
			}
			if err := enc.Encode(w, byte(run<<4)|size); err != nil {
				return nil, fmt.Errorf("AC: %w", err)
			}
			if v < 0 {
				v += int32(1<<size) - 1
			}
			w.WriteBits(uint32(v), size)
			run = 0
		}
		if last < scan.Se {
			eobrun++
			if eobrun == 0x7FFF {
				if err := flushEOB(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := flushEOB(); err != nil {
		return nil, err
	}
	w.AlignPad(scan.PadBit)
	w.AppendRaw(scan.Tail)
	return w.Bytes(), nil
}
