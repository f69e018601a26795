package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"lepton/internal/arith"
	"lepton/internal/jpeg"
	"lepton/internal/model"
)

// Progressive (SOF2, spectral selection) containers are decode-only:
// production Lepton refused progressive JPEGs "for simplicity" (§6.2), and
// so does this encoder. Containers written while compression of them was
// an opt-in still decode byte-exactly: their coefficients were coded with
// the baseline statistic-bin model as one segment, and per-scan records
// let every scan's entropy coding be regenerated bit-exactly.

// decodeProgressiveContainer reconstructs a progressive file from its
// container.
func decodeProgressiveContainer(ctx context.Context, w io.Writer, c *Container) error {
	f, err := jpeg.ParseProgressiveHeader(c.JPEGHeader)
	if err != nil {
		return fmt.Errorf("core: stored progressive header: %w", err)
	}
	if len(c.Streams) != 1 {
		return badContainer("progressive container has %d streams", len(c.Streams))
	}
	p := &jpeg.ProgFile{Frame: f, Header: c.JPEGHeader, Trailer: c.Trailer}
	for _, meta := range c.ProgScans {
		scan := jpeg.ProgScan{
			HeaderBytes: meta.HeaderBytes,
			Sel:         meta.Sel,
			Ss:          int(meta.Ss),
			Se:          int(meta.Se),
			PadBit:      meta.PadBit,
			RSTCount:    int(meta.RSTCount),
			Tail:        meta.Tail,
		}
		for _, ci := range meta.Comps {
			scan.Comps = append(scan.Comps, int(ci))
		}
		p.Scans = append(p.Scans, scan)
	}
	if err := p.CheckScans(); err != nil {
		return badContainer("progressive scan records: %v", err)
	}
	if int64(f.CoefficientCount())*2 > MemDecodeBudget {
		return &jpeg.Error{Reason: jpeg.ReasonMemDecode,
			Detail: fmt.Sprintf("%d coefficient bytes exceed budget", f.CoefficientCount()*2)}
	}
	coeff := make([][]int16, len(f.Components))
	rs := make([]int, len(f.Components))
	re := make([]int, len(f.Components))
	for i := range f.Components {
		comp := &f.Components[i]
		coeff[i] = make([]int16, comp.BlocksWide*comp.BlocksHigh*64)
		re[i] = comp.BlocksHigh
	}
	flags := model.Flags{
		EdgePrediction: c.ModelFlags&1 != 0,
		DCGradient:     c.ModelFlags&2 != 0,
	}
	codec := model.NewCodec(planesOf(f, coeff, c.Version), rs, re, flags)
	d := arith.NewDecoder(c.Streams[0])
	if err := codec.DecodeSegmentCtx(d, ctx.Done()); err != nil {
		if errors.Is(err, model.ErrInterrupted) {
			return ctx.Err()
		}
		return fmt.Errorf("core: progressive model decode: %w", err)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("core: progressive model decode: %w", err)
	}
	out, err := p.Reassemble(coeff)
	if err != nil {
		return fmt.Errorf("core: progressive reassembly: %w", err)
	}
	if len(out) != int(c.OutputSize) {
		return badContainer("progressive output %d bytes, expected %d", len(out), c.OutputSize)
	}
	_, err = w.Write(out)
	return err
}
