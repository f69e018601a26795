package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"lepton"
	"lepton/internal/imagegen"
)

func writeSample(t *testing.T, dir string, seed int64) string {
	t.Helper()
	data, err := imagegen.Generate(seed, 200, 150)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "in.jpg")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompressDecompressCommands(t *testing.T) {
	dir := t.TempDir()
	in := writeSample(t, dir, 1)
	lep := filepath.Join(dir, "out.lep")
	out := filepath.Join(dir, "out.jpg")

	if err := cmdCompress([]string{in, lep}); err != nil {
		t.Fatalf("compress: %v", err)
	}
	if err := cmdDecompress([]string{lep, out}); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	a, _ := os.ReadFile(in)
	b, _ := os.ReadFile(out)
	if !bytes.Equal(a, b) {
		t.Fatal("CLI round trip mismatch")
	}
	li, _ := os.Stat(lep)
	if li.Size() >= int64(len(a)) {
		t.Fatal("no compression via CLI")
	}
}

func TestVerifyCommand(t *testing.T) {
	dir := t.TempDir()
	in := writeSample(t, dir, 2)
	if err := cmdVerify([]string{in}); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// A progressive file must fail verification with a reason.
	data, _ := os.ReadFile(in)
	prog := filepath.Join(dir, "prog.jpg")
	if err := os.WriteFile(prog, imagegen.MakeProgressive(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{prog}); err == nil {
		t.Fatal("progressive file verified")
	}
}

func TestChunkUnchunkCommands(t *testing.T) {
	dir := t.TempDir()
	in := writeSample(t, dir, 3)
	chunkDir := filepath.Join(dir, "chunks")
	out := filepath.Join(dir, "re.jpg")

	if err := cmdChunk([]string{"-size", "1024", in, chunkDir}); err != nil {
		t.Fatalf("chunk: %v", err)
	}
	names, _ := filepath.Glob(filepath.Join(chunkDir, "chunk-*.lep"))
	if len(names) < 2 {
		t.Fatalf("only %d chunks", len(names))
	}
	if err := cmdUnchunk([]string{chunkDir, out}); err != nil {
		t.Fatalf("unchunk: %v", err)
	}
	a, _ := os.ReadFile(in)
	b, _ := os.ReadFile(out)
	if !bytes.Equal(a, b) {
		t.Fatal("chunk/unchunk round trip mismatch")
	}
}

// TestUnchunkOrdersChunksByIndex runs a file through more than 10,000
// chunks, where chunk-10000.lep sorts between chunk-1000.lep and
// chunk-1001.lep as a string, then checks that a stray chunk name and a
// missing chunk each fail the reassembly instead of changing its bytes.
func TestUnchunkOrdersChunksByIndex(t *testing.T) {
	comp, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden-color-multiseg.lep"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := lepton.Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "in.jpg")
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	chunkDir := filepath.Join(dir, "chunks")
	if err := cmdChunk([]string{"-size", "4", in, chunkDir}); err != nil {
		t.Fatalf("chunk: %v", err)
	}
	names, _ := filepath.Glob(filepath.Join(chunkDir, "chunk-*.lep"))
	if len(names) <= 10000 {
		t.Fatalf("%d chunks; the test needs more than 10,000", len(names))
	}
	out := filepath.Join(dir, "re.jpg")
	if err := cmdUnchunk([]string{chunkDir, out}); err != nil {
		t.Fatalf("unchunk: %v", err)
	}
	if back, _ := os.ReadFile(out); !bytes.Equal(back, data) {
		t.Fatal("unchunk of >10,000 chunks does not reproduce the input")
	}

	one, err := os.ReadFile(filepath.Join(chunkDir, "chunk-0001.lep"))
	if err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(chunkDir, "chunk-1.lep")
	if err := os.WriteFile(stray, one, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdUnchunk([]string{chunkDir, filepath.Join(dir, "stray.jpg")}); err == nil {
		t.Fatal("unchunk accepted a stray chunk name")
	}
	if err := os.Remove(stray); err != nil {
		t.Fatal(err)
	}

	if err := os.Remove(filepath.Join(chunkDir, "chunk-5000.lep")); err != nil {
		t.Fatal(err)
	}
	if err := cmdUnchunk([]string{chunkDir, filepath.Join(dir, "gap.jpg")}); err == nil {
		t.Fatal("unchunk accepted a missing chunk")
	}
}

func TestInfoCommand(t *testing.T) {
	dir := t.TempDir()
	in := writeSample(t, dir, 4)
	lep := filepath.Join(dir, "x.lep")
	if err := cmdCompress([]string{"-threads", "3", in, lep}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInfo([]string{lep}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := cmdInfo([]string{in}); err == nil {
		t.Fatal("info accepted a non-Lepton file")
	}
}

func TestCommandArgErrors(t *testing.T) {
	if err := cmdCompress([]string{"only-one"}); err == nil {
		t.Fatal("missing output accepted")
	}
	if err := cmdDecompress([]string{"nonexistent.lep", "out"}); err == nil {
		t.Fatal("missing input accepted")
	}
	if err := cmdUnchunk([]string{t.TempDir(), "out"}); err == nil {
		t.Fatal("empty chunk dir accepted")
	}
}
