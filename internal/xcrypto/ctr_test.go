package xcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// ctrPaths returns a LinkCipher on each CTR path this build and host
// have: the portable loop always, the keystream kernel when the CPU has
// it.
func ctrPaths(tb testing.TB, keys SessionKeys) map[string]*LinkCipher {
	tb.Helper()
	mk := func(kernel bool) *LinkCipher {
		lc, err := newLinkCipher(&keys, kernel, haveMACKernel)
		if err != nil {
			tb.Fatal(err)
		}
		if (lc.portable == nil) != kernel {
			tb.Fatalf("newLinkCipher(kernel=%v) took the other path", kernel)
		}
		return lc
	}
	paths := map[string]*LinkCipher{"portable": mk(false)}
	if haveCTRKernel {
		paths["kernel"] = mk(true)
	}
	return paths
}

// stdlibCTR is the reference: crypto/cipher's CTR over a fresh block.
func stdlibCTR(tb testing.TB, keys SessionKeys, iv, src []byte) []byte {
	tb.Helper()
	block, err := aes.NewCipher(keys.Enc[:])
	if err != nil {
		tb.Fatal(err)
	}
	want := make([]byte, len(src))
	cipher.NewCTR(block, iv).XORKeyStream(want, src)
	return want
}

// checkCTR holds every path against the stdlib for one (iv, src), both
// into a separate dst — whose bytes past len(src) must stay untouched —
// and in place.
func checkCTR(tb testing.TB, keys SessionKeys, paths map[string]*LinkCipher, iv, src []byte) {
	tb.Helper()
	want := stdlibCTR(tb, keys, iv, src)
	for name, lc := range paths {
		got := bytes.Repeat([]byte{0xA5}, len(src)+32)
		lc.ctrXOR(iv, got[:len(src)], src)
		if !bytes.Equal(got[:len(src)], want) {
			tb.Fatalf("%s: iv %x len %d: keystream differs from crypto/cipher CTR", name, iv, len(src))
		}
		if !bytes.Equal(got[len(src):], bytes.Repeat([]byte{0xA5}, 32)) {
			tb.Fatalf("%s: iv %x len %d: wrote past len(src)", name, iv, len(src))
		}
		inPlace := append([]byte(nil), src...)
		lc.ctrXOR(iv, inPlace, inPlace)
		if !bytes.Equal(inPlace, want) {
			tb.Fatalf("%s: iv %x len %d: dst == src differs from crypto/cipher CTR", name, iv, len(src))
		}
	}
}

// ivAt builds the IV whose 128-bit big-endian value is hi:lo.
func ivAt(hi, lo uint64) []byte {
	iv := make([]byte, NonceSize)
	binary.BigEndian.PutUint64(iv, hi)
	binary.BigEndian.PutUint64(iv[8:], lo)
	return iv
}

// TestCTRKernelEveryLength holds both paths against crypto/cipher's CTR
// at every length 0…256: every 8- and 4-block shape and every tail of
// one to 63 bytes the kernel runs as one four-block call over a stack
// copy, with and without a leading 8-block group, and two whole groups.
func TestCTRKernelEveryLength(t *testing.T) {
	keys := testKeys(5)
	paths := ctrPaths(t, keys)
	rng := rand.New(rand.NewSource(31))
	for n := 0; n <= 256; n++ {
		iv := make([]byte, NonceSize)
		rng.Read(iv)
		src := make([]byte, n)
		rng.Read(src)
		checkCTR(t, keys, paths, iv, src)
	}
}

// TestCTRKernelCarry places the low limb's overflow at every block
// position inside an 8-block group, then inside the 4-block group and
// the stack-copied tail that follow one, and runs the all-0xFF IV (the
// whole counter wraps to zero after the first block).
func TestCTRKernelCarry(t *testing.T) {
	keys := testKeys(9)
	paths := ctrPaths(t, keys)
	src := make([]byte, 2*128+7) // 8 + 8 blocks and a partial one
	rand.New(rand.NewSource(32)).Read(src)
	const hi = 0x0123456789ABCDEF
	for back := uint64(0); back <= 16; back++ {
		// Block `back` is the last before the low limb wraps.
		checkCTR(t, keys, paths, ivAt(hi, ^uint64(0)-back), src)
		// The same with the high limb all ones: the carry wraps it too.
		checkCTR(t, keys, paths, ivAt(^uint64(0), ^uint64(0)-back), src)
	}
	tail := src[:128+64+32+16+5] // 8 + 4 + 2 + 1 blocks and a partial one
	for back := uint64(7); back <= 15; back++ {
		checkCTR(t, keys, paths, ivAt(hi, ^uint64(0)-back), tail)
	}
	checkCTR(t, keys, paths, bytes.Repeat([]byte{0xFF}, NonceSize), src)
}

// TestExpandKeyMatchesStdlib checks the kernel's key schedule through
// its only observable: the first keystream block is AES(key, iv), which
// the stdlib block computes on its own schedule.
func TestExpandKeyMatchesStdlib(t *testing.T) {
	if !haveCTRKernel {
		t.Skip("no kernel on this build or CPU")
	}
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 32; trial++ {
		var keys SessionKeys
		rng.Read(keys.Enc[:])
		lc, err := newLinkCipher(&keys, true, haveMACKernel)
		if err != nil {
			t.Fatal(err)
		}
		block, err := aes.NewCipher(keys.Enc[:])
		if err != nil {
			t.Fatal(err)
		}
		iv := make([]byte, NonceSize)
		rng.Read(iv)
		want := make([]byte, NonceSize)
		block.Encrypt(want, iv)
		got := make([]byte, NonceSize)
		lc.ctrXOR(iv, got, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: first keystream block is not AES(key, iv)", trial)
		}
	}
}

// FuzzCTRKernel holds both paths against the stdlib on arbitrary keys,
// counters and lengths, seeded with the shapes the tests above pin.
func FuzzCTRKernel(f *testing.F) {
	for _, n := range []int{0, 1, 15, 16, 17, 62, 127, 128, 129, 255, 512} {
		f.Add(byte(n), uint64(n), uint64(n)*977, make([]byte, n))
	}
	for back := uint64(0); back < 8; back++ {
		f.Add(byte(back), uint64(0x0123456789ABCDEF), ^uint64(0)-back, make([]byte, 128+37))
	}
	f.Add(byte(0xFF), ^uint64(0), ^uint64(0), make([]byte, 300))
	f.Fuzz(func(t *testing.T, seed byte, hi, lo uint64, src []byte) {
		keys := testKeys(seed)
		checkCTR(t, keys, ctrPaths(t, keys), ivAt(hi, lo), src)
	})
}

// TestLinkCipherFootprint pins what NewLinkCipher allocates per link.
// With both kernels that is the LinkCipher and nothing else: schedule
// and chaining values behind two nil pointers, 320 bytes (go1.24, amd64).
// It was 8 objects and 1168 bytes before the CTR kernel (a cipher.Block
// with both schedules), 7 and 864 before the MAC one (crypto/hmac's six),
// and 352 while an open's tag scratch lived in it. Background allocations add a few bytes per link.
// What the collector scans of it ends at the last pointer field, and that
// is pinned too: with scalar state ahead of a pointer every link end is
// that much more mark work to the pacer than it holds pointers for.
func TestLinkCipherFootprint(t *testing.T) {
	var lc LinkCipher
	scanned := max(unsafe.Offsetof(lc.mac)+unsafe.Sizeof(lc.mac), unsafe.Offsetof(lc.portable)+unsafe.Sizeof(lc.portable))
	for name, off := range map[string]uintptr{"enc": unsafe.Offsetof(lc.enc), "mid": unsafe.Offsetof(lc.mid)} {
		if off < scanned {
			t.Errorf("LinkCipher keeps %s (offset %d) ahead of its last pointer (pointers end at %d)", name, off, scanned)
		}
	}
	if !haveCTRKernel || !haveMACKernel {
		t.Skip("a portable path keeps its stdlib state")
	}
	keys := testKeys(21)
	const links = 1024 // enough that a stray background allocation is under a byte per link
	held := make([]*LinkCipher, links)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range held {
		lc, err := NewLinkCipher(keys)
		if err != nil {
			t.Fatal(err)
		}
		held[i] = lc
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(held)
	allocs := float64(after.Mallocs-before.Mallocs) / links
	size := float64(after.TotalAlloc-before.TotalAlloc) / links
	t.Logf("NewLinkCipher: %.2f allocations, %.0f bytes per link", allocs, size)
	if allocs > 1.5 {
		t.Errorf("NewLinkCipher makes %.2f allocations per link, want 1: the LinkCipher itself", allocs)
	}
	if size > 320+16 {
		t.Errorf("NewLinkCipher allocates %.0f bytes per link, want one 320-byte object", size)
	}
}

// BenchmarkCTRXOR times the bare keystream XOR on each path at the
// smallest frame's plaintext (a 110-byte envelope carries 62), the
// erb_mux mean and a full 4 KiB.
func BenchmarkCTRXOR(b *testing.B) {
	keys := testKeys(77)
	paths := ctrPaths(b, keys)
	iv := ivAt(0x0123456789ABCDEF, 0xFEDCBA9876543210)
	for _, name := range []string{"kernel", "portable"} {
		lc, ok := paths[name]
		if !ok {
			continue
		}
		for _, size := range []int{62, 512, 4096} {
			b.Run(fmt.Sprintf("%s/%d", name, size), func(b *testing.B) {
				src, dst := make([]byte, size), make([]byte, size)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					lc.ctrXOR(iv, dst, src)
				}
			})
		}
	}
}
