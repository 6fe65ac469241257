package mat

import (
	"os"
	"strings"
	"testing"
)

// TestDetectAVX2MatchesCPUInfo checks the CPUID/XGETBV detection against
// the kernel's view: Linux lists avx2 in /proc/cpuinfo only when the CPU
// has it and the OS saves the YMM state, the same conditions haveAVX2
// tests.
func TestDetectAVX2MatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var listed bool
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			listed = strings.Contains(" "+flags+" ", " avx2 ")
			break
		}
	}
	if haveAVX2 != listed {
		t.Fatalf("haveAVX2 = %v, /proc/cpuinfo lists avx2: %v", haveAVX2, listed)
	}
}
