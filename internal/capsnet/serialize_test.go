//pimcaps:bitexact

package capsnet

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pimcapsnet/internal/tensor"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := TinyConfig(4)
	cfg.WithDecoder = true
	net := newTestNet(t, cfg)
	// Perturb weights so we aren't just testing seeded init.
	net.Digit.Weights.Data()[0] = 42
	net.Conv.Bias[3] = -1.5
	net.Dec.Layers[1].Bias[7] = 0.25

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(loaded.Close)

	batch := tensor.New(2, 1, 12, 12)
	for i := range batch.Data() {
		batch.Data()[i] = float32(i%13) / 13
	}
	a := net.Forward(batch, ExactMath{})
	b := loaded.Forward(batch, ExactMath{})
	if !a.Capsules.Equal(b.Capsules) {
		t.Fatal("loaded network produces different capsules")
	}
	ra := net.Reconstruct(a, 0, 1)
	rb := loaded.Reconstruct(b, 0, 1)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("loaded decoder differs")
		}
	}
}

func TestSaveLoadWithoutDecoder(t *testing.T) {
	net := newTestNet(t, TinyConfig(2))
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dec != nil {
		t.Fatal("decoder appeared from nowhere")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadRejectsCorruptedState(t *testing.T) {
	net := newTestNet(t, TinyConfig(2))
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil || loaded == nil {
		t.Fatal("sane checkpoint must load")
	}
}

// checkpointBytes serializes net and returns the framed bytes.
func checkpointBytes(t *testing.T, net *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsBitFlip: any single flipped bit in the file fails
// the CRC32 trailer with ErrCorruptCheckpoint — never a silently
// wrong model.
func TestLoadRejectsBitFlip(t *testing.T) {
	net := newTestNet(t, TinyConfig(2))
	valid := checkpointBytes(t, net)
	for _, pos := range []int{0, len(valid) / 3, len(valid) / 2, len(valid) - 5} {
		corrupt := append([]byte(nil), valid...)
		corrupt[pos] ^= 0x10
		_, err := Load(bytes.NewReader(corrupt))
		if err == nil {
			t.Fatalf("bit flip at byte %d accepted", pos)
		}
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("bit flip at byte %d: %v, want ErrCorruptCheckpoint", pos, err)
		}
	}
}

// TestLoadRejectsTruncation: every prefix of a valid checkpoint is
// rejected with the typed error.
func TestLoadRejectsTruncation(t *testing.T) {
	net := newTestNet(t, TinyConfig(2))
	valid := checkpointBytes(t, net)
	for _, n := range []int{0, 4, len(valid) / 2, len(valid) - 1} {
		_, err := Load(bytes.NewReader(valid[:n]))
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("truncation to %d bytes: %v, want ErrCorruptCheckpoint", n, err)
		}
	}
}

// TestLoadRejectsDecoderBiasMismatch reproduces the pre-fix panic: a
// crafted state with fewer DecB entries than DecW must return an
// error, not index out of range.
func TestLoadRejectsDecoderBiasMismatch(t *testing.T) {
	cfg := TinyConfig(2)
	cfg.WithDecoder = true
	net := newTestNet(t, cfg)
	st := netState{
		Config:   net.Config,
		ConvW:    net.Conv.Weights.Data(),
		ConvB:    net.Conv.Bias,
		PrimaryW: net.Primary.Conv.Weights.Data(),
		PrimaryB: net.Primary.Conv.Bias,
		DigitW:   net.Digit.Weights.Data(),
	}
	for _, l := range net.Dec.Layers {
		st.DecW = append(st.DecW, l.Weights.Data())
	}
	st.DecB = append(st.DecB, net.Dec.Layers[0].Bias) // 1 bias for 3 layers
	if _, err := restoreState(st); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("decoder bias mismatch: %v, want ErrCorruptCheckpoint", err)
	}
}

// TestSaveFileDurable: SaveFile round-trips through disk and leaves
// no temp droppings.
func TestSaveFileDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.ckpt")
	net := newTestNet(t, TinyConfig(3))
	net.Digit.Weights.Data()[1] = 7.25
	if err := net.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Digit.Weights.Data()[1] != 7.25 {
		t.Fatal("weights did not round-trip")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want only the checkpoint: %v", len(entries), entries)
	}
}

// TestSaveFileCrashKeepsOldCheckpoint: a crash at ANY stage before
// the rename publishes the new file must leave the old checkpoint
// loadable and bit-identical — the paper-stack's answer to "a crash
// mid-checkpoint corrupting a trained model".
func TestSaveFileCrashKeepsOldCheckpoint(t *testing.T) {
	for _, stage := range []string{"written", "synced"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "net.ckpt")
			oldNet := newTestNet(t, TinyConfig(2))
			oldNet.Digit.Weights.Data()[0] = 1.5
			if err := oldNet.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			oldBytes, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			newNet := newTestNet(t, TinyConfig(2))
			newNet.Digit.Weights.Data()[0] = -9
			checkpointCrashHook = func(s string) {
				if s == stage {
					panic("simulated crash at " + s)
				}
			}
			defer func() { checkpointCrashHook = nil }()
			func() {
				defer func() { recover() }() // the "kill"
				newNet.SaveFile(path)
			}()

			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("old checkpoint gone after crash at %s: %v", stage, err)
			}
			if !bytes.Equal(got, oldBytes) {
				t.Fatalf("checkpoint bytes changed after crash at %s", stage)
			}
			loaded, err := LoadFile(path)
			if err != nil {
				t.Fatalf("old checkpoint unloadable after crash at %s: %v", stage, err)
			}
			if loaded.Digit.Weights.Data()[0] != 1.5 {
				t.Fatal("old weights corrupted")
			}
			// Any stray temp file from the crash must fail Load's
			// verification rather than pose as a model.
			entries, _ := os.ReadDir(dir)
			for _, e := range entries {
				if e.Name() == filepath.Base(path) {
					continue
				}
				if _, err := LoadFile(filepath.Join(dir, e.Name())); err == nil {
					t.Fatalf("stray temp file %s loads as a model", e.Name())
				}
			}
		})
	}
}

// TestSaveFileCrashAfterRename: once the rename happened the NEW
// checkpoint must be the loadable one, even if the process dies
// before the directory fsync.
func TestSaveFileCrashAfterRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.ckpt")
	oldNet := newTestNet(t, TinyConfig(2))
	if err := oldNet.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	newNet := newTestNet(t, TinyConfig(2))
	newNet.Digit.Weights.Data()[0] = -9
	checkpointCrashHook = func(s string) {
		if s == "renamed" {
			panic("simulated crash after rename")
		}
	}
	defer func() { checkpointCrashHook = nil }()
	func() {
		defer func() { recover() }()
		newNet.SaveFile(path)
	}()
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Digit.Weights.Data()[0] != -9 {
		t.Fatal("renamed checkpoint does not carry the new weights")
	}
}
