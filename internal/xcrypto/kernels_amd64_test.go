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
