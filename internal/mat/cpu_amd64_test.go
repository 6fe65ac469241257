package mat

import (
	"math"
	"os"
	"strings"
	"testing"
)

// cpuInfoFlags returns the first "flags" line of /proc/cpuinfo, padded with
// spaces so " name " finds a whole flag.
func cpuInfoFlags(t *testing.T) string {
	t.Helper()
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			return " " + flags + " "
		}
	}
	return ""
}

// TestDetectAVX2MatchesCPUInfo checks the CPUID/XGETBV detection against
// the kernel's view: Linux lists avx2 in /proc/cpuinfo only when the CPU
// has it and the OS saves the YMM state, the same conditions haveAVX2
// tests.
func TestDetectAVX2MatchesCPUInfo(t *testing.T) {
	listed := strings.Contains(cpuInfoFlags(t), " avx2 ")
	if haveAVX2 != listed {
		t.Fatalf("haveAVX2 = %v, /proc/cpuinfo lists avx2: %v", haveAVX2, listed)
	}
}

// TestTanhGateMatchesCPUInfo checks the tanh kernel's gate: it is on
// exactly when /proc/cpuinfo lists avx2 and fma and math.Tanh takes
// math.Exp's FMA path, which gives −0.6292001413901859 the tanh
// 0xbfe1d70cc4517ea9 (…ea8 without FMA, as under GODEBUG=cpu.fma=off).
func TestTanhGateMatchesCPUInfo(t *testing.T) {
	flags := cpuInfoFlags(t)
	hardware := strings.Contains(flags, " avx2 ") && strings.Contains(flags, " fma ")
	mathFMA := math.Float64bits(math.Tanh(-0.6292001413901859)) == 0xbfe1d70cc4517ea9
	if haveTanhKernel != (hardware && mathFMA) {
		t.Fatalf("haveTanhKernel = %v, /proc/cpuinfo lists avx2 and fma: %v, math.Tanh on the FMA path: %v", haveTanhKernel, hardware, mathFMA)
	}
}
