//go:build !purego

package xcrypto

import (
	"os"
	"strings"
	"testing"
)

// TestCTRKernelSelection holds the CPUID decoding against the kernel's
// own reading of the CPU, so a wrong feature bit cannot quietly send
// every link down the portable path and let the kernel tests skip.
func TestCTRKernelSelection(t *testing.T) {
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
