//go:build !purego

package xcrypto

import (
	"os"
	"strings"
	"testing"
)

// cpuinfoFlags is the kernel's own reading of the CPU's feature flags,
// the second opinion the selection tests hold the CPUID decoding against.
func cpuinfoFlags(t *testing.T) map[string]bool {
	t.Helper()
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no second opinion on the CPU: %v", err)
	}
	_, flags, ok := strings.Cut(string(info), "\nflags")
	if !ok {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	flags, _, _ = strings.Cut(flags, "\n")
	has := map[string]bool{}
	for _, f := range strings.Fields(flags) {
		has[f] = true
	}
	return has
}

// TestCTRKernelSelection holds the CPUID decoding against the kernel's
// own reading of the CPU, so a wrong feature bit cannot quietly send
// every link down the portable path and let the kernel tests skip.
func TestCTRKernelSelection(t *testing.T) {
	has := cpuinfoFlags(t)
	want := has["aes"] && has["sse4_1"] && has["ssse3"]
	if haveCTRKernel != want {
		t.Fatalf("haveCTRKernel = %v, /proc/cpuinfo says aes=%v sse4_1=%v ssse3=%v", haveCTRKernel, has["aes"], has["sse4_1"], has["ssse3"])
	}
	lc, err := NewLinkCipher(testKeys(1))
	if err != nil {
		t.Fatal(err)
	}
	if (lc.portable == nil) != want {
		t.Fatalf("NewLinkCipher kernel path = %v, want %v", lc.portable == nil, want)
	}
}

// TestMACKernelSelection does the same for the SHA bit (CPUID leaf 7),
// read independently of the AES one.
func TestMACKernelSelection(t *testing.T) {
	has := cpuinfoFlags(t)
	want := has["sha_ni"] && has["sse4_1"] && has["ssse3"]
	if haveMACKernel != want {
		t.Fatalf("haveMACKernel = %v, /proc/cpuinfo says sha_ni=%v sse4_1=%v ssse3=%v", haveMACKernel, has["sha_ni"], has["sse4_1"], has["ssse3"])
	}
	lc, err := NewLinkCipher(testKeys(1))
	if err != nil {
		t.Fatal(err)
	}
	if (lc.mac == nil) != want {
		t.Fatalf("NewLinkCipher MAC kernel path = %v, want %v", lc.mac == nil, want)
	}
}

// TestX25519KernelSelected reads CPUID and XGETBV afresh, with the bits
// spelled out here rather than taken from the selection code, and fails
// (it never skips) when they report AVX-512 F and IFMA with the opmask and
// ZMM state saved by the operating system but a batch of eight does not
// go through the kernel: a detection bug would otherwise quietly send every
// agreement back to crypto/ecdh. The kernel's own reading of the CPU, where
// there is one, must agree; Linux lists the AVX-512 flags only when it
// saves that state.
func TestX25519KernelSelected(t *testing.T) {
	cpu := cpuid7EBX()&(1<<16) != 0 && cpuid7EBX()&(1<<21) != 0 &&
		cpuid1ECX()&(1<<27) != 0 && xgetbv0()&0xe6 == 0xe6
	if haveX25519Kernel != cpu {
		t.Fatalf("haveX25519Kernel = %v, CPUID and XGETBV say %v", haveX25519Kernel, cpu)
	}
	remotes := make([][32]byte, BatchLanes)
	for i := range remotes {
		remotes[i][0] = byte(9 + i)
	}
	keys := make([]SessionKeys, len(remotes))
	errs := make([]error, len(remotes))
	kp := keyPairFrom(t, [32]byte{0: 7})
	want := 0
	if cpu {
		want = BatchLanes
	}
	if got := kp.deriveBatch(remotes, keys, errs, x25519BatchMin); got != want {
		t.Fatalf("a batch of %d took the kernel for %d agreements, want %d (CPU has the kernel: %v)", BatchLanes, got, want, cpu)
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil && strings.Contains(string(info), "\nflags") {
		has := cpuinfoFlags(t)
		if linux := has["avx512f"] && has["avx512ifma"]; linux != cpu {
			t.Fatalf("CPUID and XGETBV say %v, /proc/cpuinfo says avx512f=%v avx512ifma=%v", cpu, has["avx512f"], has["avx512ifma"])
		}
	}
}

// TestVerifyKernelSelected is TestX25519KernelSelected for the eight-lane
// signature check, which runs on the same kernels under the same
// detection: it fails (it never skips) when CPUID and XGETBV report
// AVX-512 F and IFMA with their state saved but a batch of eight genuine
// signatures is not checked by the kernel, or is not accepted.
func TestVerifyKernelSelected(t *testing.T) {
	cpu := cpuid7EBX()&(1<<16) != 0 && cpuid7EBX()&(1<<21) != 0 &&
		cpuid1ECX()&(1<<27) != 0 && xgetbv0()&0xe6 == 0xe6
	sk, err := GenerateSigningKey(fixedReader(make([]byte, 32)))
	if err != nil {
		t.Fatal(err)
	}
	msgs, sigs := make([][]byte, BatchLanes), make([][]byte, BatchLanes)
	for i := range msgs {
		msgs[i] = []byte{byte(i)}
		sigs[i] = sk.Sign(msgs[i])
	}
	ok := make([]bool, BatchLanes)
	want := 0
	if cpu {
		want = BatchLanes
	}
	if got := sk.VerifyKey().verifyBatch(msgs, sigs, ok, verifyBatchMin); got != want {
		t.Fatalf("a batch of %d took the kernel for %d signatures, want %d (CPU has the kernel: %v)", BatchLanes, got, want, cpu)
	}
	for i, v := range ok {
		if !v {
			t.Fatalf("lane %d rejected a genuine signature", i)
		}
	}
}
