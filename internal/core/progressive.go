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

// Progressive (SOF2, spectral selection) support: the capability production
// Lepton intentionally left disabled (§6.2). Coefficients are coded with
// the same statistic-bin model as baseline files; the container carries
// per-scan metadata so every scan's entropy coding is regenerated
// bit-exactly. Progressive files are coded as a single model segment and
// kept memory-resident, as the paper describes the binary doing.

// encodeProgressive compresses a progressive JPEG into a ModeProgressive
// container, drawing the container scratch from cd's pools.
func (cd *Codec) encodeProgressive(ctx context.Context, data []byte, opt EncodeOptions, encBudget, decBudget int64) (*Result, error) {
	p, err := jpeg.ParseProgressive(data, encBudget)
	if err != nil {
		return nil, err
	}
	f := p.Frame
	if int64(f.CoefficientCount())*2 > decBudget {
		return nil, &jpeg.Error{Reason: jpeg.ReasonMemDecode,
			Detail: fmt.Sprintf("decode would need %d coefficient bytes", f.CoefficientCount()*2)}
	}
	coeff, err := jpeg.DecodeProgressive(p)
	if err != nil {
		return nil, err
	}

	flags := model.DefaultFlags()
	if opt.Flags != nil {
		flags = *opt.Flags
	}
	rs := make([]int, len(f.Components))
	re := make([]int, len(f.Components))
	for i := range f.Components {
		re[i] = f.Components[i].BlocksHigh
	}
	codec := model.NewCodec(planesOf(f, coeff, Version), rs, re, flags)
	if opt.CollectStats {
		codec.Stats = &model.Stats{}
	}
	e := arith.NewEncoder()
	if err := codec.EncodeSegmentCtx(e, ctx.Done()); err != nil {
		return nil, ctx.Err()
	}
	stream := e.Flush()

	c := &Container{
		Mode:       ModeProgressive,
		OutputSize: uint32(len(data)),
		JPEGHeader: p.Header,
		Trailer:    p.Trailer,
		PadBit:     0,
		EmitHeader: true,
		EmitTail:   true,
		MCUStart:   0,
		MCUEnd:     uint32(f.TotalMCUs()),
		ModelFlags: flagsByte(flags.EdgePrediction, flags.DCGradient),
		Segments:   []Segment{{StartMCU: 0, ArithLen: uint32(len(stream))}},
		Streams:    [][]byte{stream},
	}
	for si := range p.Scans {
		scan := &p.Scans[si]
		meta := ProgScanMeta{
			HeaderBytes: scan.HeaderBytes,
			Ss:          uint8(scan.Ss),
			Se:          uint8(scan.Se),
			PadBit:      scan.PadBit,
			RSTCount:    uint32(scan.RSTCount),
			Tail:        scan.Tail,
			Sel:         scan.Sel,
		}
		for _, ci := range scan.Comps {
			meta.Comps = append(meta.Comps, byte(ci))
		}
		c.ProgScans = append(c.ProgScans, meta)
	}
	comp, err := cd.MarshalContainer(c)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Compressed:     comp,
		Segments:       1,
		HeaderOriginal: len(p.Header),
	}
	if codec.Stats != nil {
		res.ClassBits = codec.Stats.Bits
	}
	res.HeaderCompressed = len(comp) - len(stream)
	if opt.VerifyRoundtrip {
		if err := cd.VerifyCtx(ctx, comp, data, decBudget); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// decodeProgressiveContainer reconstructs a progressive file from its
// container.
func decodeProgressiveContainer(ctx context.Context, w io.Writer, c *Container, memBudget int64) error {
	f, err := jpeg.ParseProgressiveHeader(c.JPEGHeader)
	if err != nil {
		return fmt.Errorf("core: stored progressive header: %w", err)
	}
	if int64(f.CoefficientCount())*2 > memBudget {
		return &jpeg.Error{Reason: jpeg.ReasonMemDecode,
			Detail: fmt.Sprintf("%d coefficient bytes exceed budget", f.CoefficientCount()*2)}
	}
	coeff := make([][]int16, len(f.Components))
	for i := range f.Components {
		comp := &f.Components[i]
		coeff[i] = make([]int16, comp.BlocksWide*comp.BlocksHigh*64)
	}
	flags := model.Flags{
		EdgePrediction: c.ModelFlags&1 != 0,
		DCGradient:     c.ModelFlags&2 != 0,
	}
	rs := make([]int, len(f.Components))
	re := make([]int, len(f.Components))
	for i := range f.Components {
		re[i] = f.Components[i].BlocksHigh
	}
	if len(c.Streams) != 1 {
		return badContainer("progressive container has %d streams", len(c.Streams))
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

	p := &jpeg.ProgFile{Frame: f, Header: c.JPEGHeader, Trailer: c.Trailer}
	for _, meta := range c.ProgScans {
		scan := jpeg.ProgScan{
			HeaderBytes: meta.HeaderBytes,
			Ss:          int(meta.Ss),
			Se:          int(meta.Se),
			PadBit:      meta.PadBit,
			RSTCount:    int(meta.RSTCount),
			Tail:        meta.Tail,
			Sel:         meta.Sel,
		}
		for _, ci := range meta.Comps {
			if int(ci) >= len(f.Components) {
				return badContainer("progressive scan component %d", ci)
			}
			scan.Comps = append(scan.Comps, int(ci))
		}
		p.Scans = append(p.Scans, scan)
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
