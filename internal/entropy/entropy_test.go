package entropy

import (
	"bytes"
	"io"
	"testing"
	"time"
)

func TestDeterministicStream(t *testing.T) {
	a := NewPool([]byte("firmware-v1"))
	b := NewPool([]byte("firmware-v1"))
	bufA, bufB := make([]byte, 64), make([]byte, 64)
	if _, err := io.ReadFull(a, bufA); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(b, bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA, bufB) {
		t.Error("identical boot states must produce identical streams — this IS the vulnerability")
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := NewPool([]byte("firmware-v1"))
	b := NewPool([]byte("firmware-v2"))
	bufA, bufB := make([]byte, 32), make([]byte, 32)
	a.Read(bufA)
	b.Read(bufB)
	if bytes.Equal(bufA, bufB) {
		t.Error("different seeds should diverge")
	}
}

func TestMixForksStream(t *testing.T) {
	a := NewPool([]byte("fw"))
	b := NewPool([]byte("fw"))
	buf := make([]byte, 32)
	a.Read(buf)
	b.Read(buf)
	a.Mix([]byte("network packet"))
	bufA, bufB := make([]byte, 32), make([]byte, 32)
	a.Read(bufA)
	b.Read(bufB)
	if bytes.Equal(bufA, bufB) {
		t.Error("mix must fork the output stream")
	}
}

func TestMixIsOrderSensitive(t *testing.T) {
	a := NewPool([]byte("fw"))
	b := NewPool([]byte("fw"))
	a.Mix([]byte("x"))
	a.Mix([]byte("y"))
	b.Mix([]byte("y"))
	b.Mix([]byte("x"))
	bufA, bufB := make([]byte, 16), make([]byte, 16)
	a.Read(bufA)
	b.Read(bufB)
	if bytes.Equal(bufA, bufB) {
		t.Error("mix order should matter")
	}
}

func TestReadNeverFails(t *testing.T) {
	p := NewPool(nil)
	big := make([]byte, 10000)
	n, err := p.Read(big)
	if n != len(big) || err != nil {
		t.Errorf("urandom semantics: Read = %d, %v", n, err)
	}
}

func TestReadContinuesStream(t *testing.T) {
	// Reading 64 bytes at once equals reading 64 bytes in odd chunks.
	a := NewPool([]byte("s"))
	b := NewPool([]byte("s"))
	whole := make([]byte, 64)
	a.Read(whole)
	var parts []byte
	for _, sz := range []int{1, 7, 13, 31, 12} {
		chunk := make([]byte, sz)
		b.Read(chunk)
		parts = append(parts, chunk...)
	}
	if !bytes.Equal(whole, parts) {
		t.Error("chunked reads must match a single read")
	}
}

func TestMixTimeGranularity(t *testing.T) {
	base := time.Date(2012, 2, 1, 0, 0, 0, 0, time.UTC)
	// Two devices mixing times within the same second at 1s granularity
	// stay identical; at 1ms granularity they diverge.
	a, b := NewPool([]byte("fw")), NewPool([]byte("fw"))
	a.MixTime(base.Add(100*time.Millisecond), time.Second)
	b.MixTime(base.Add(900*time.Millisecond), time.Second)
	bufA, bufB := make([]byte, 16), make([]byte, 16)
	a.Read(bufA)
	b.Read(bufB)
	if !bytes.Equal(bufA, bufB) {
		t.Error("same coarse timestamp should keep pools identical")
	}
	c, d := NewPool([]byte("fw")), NewPool([]byte("fw"))
	c.MixTime(base.Add(100*time.Millisecond), time.Millisecond)
	d.MixTime(base.Add(900*time.Millisecond), time.Millisecond)
	c.Read(bufA)
	d.Read(bufB)
	if bytes.Equal(bufA, bufB) {
		t.Error("fine-grained timestamps should diverge pools")
	}
}
