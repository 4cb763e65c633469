package capsnet

import (
	"bytes"
	"testing"
)

// FuzzLoad feeds mutated checkpoint bytes into Load. The invariant is
// crash-freedom: Load either returns a usable *Network or an error —
// it must never panic, allocate absurdly from a crafted config, or
// index out of range on inconsistent slice counts (the pre-fix DecB
// bug). CI runs this for a 10s smoke on every push; the seed corpus
// alone runs under plain `go test`.
func FuzzLoad(f *testing.F) {
	net := newTestNet(f, TinyConfig(2))
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	dec := newTestNet(f, func() Config { c := TinyConfig(2); c.WithDecoder = true; return c }())
	var decBuf bytes.Buffer
	if err := dec.Save(&decBuf); err != nil {
		f.Fatal(err)
	}

	f.Add(valid)
	f.Add(decBuf.Bytes())
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("PIMCAPS\x01 definitely not gob"))
	f.Add([]byte("not a checkpoint at all"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := Load(bytes.NewReader(data))
		if err == nil && n == nil {
			t.Fatal("Load returned neither a network nor an error")
		}
		if err != nil && n != nil {
			t.Fatal("Load returned both a network and an error")
		}
	})
}
