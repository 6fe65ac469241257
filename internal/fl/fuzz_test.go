package fl

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzSanitizeUpdate decodes arbitrary bytes into client updates and runs
// them through the sanitizer. Whatever the bytes say, Sanitize must never
// panic, must account for every input exactly once, must only accept
// finite, right-sized, norm-bounded updates, and must give every rejection
// a reason.
func FuzzSanitizeUpdate(f *testing.F) {
	f.Add([]byte{}, uint8(4), float64(10))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, uint8(1), float64(10))            // +Inf parameter
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 2, 2, 2, 2}, uint8(1), float64(0)) // NaN + short tail
	f.Add([]byte{64, 64, 64, 64, 64, 64, 64, 64}, uint8(1), float64(1e-12))       // norm blowup

	f.Fuzz(func(t *testing.T, data []byte, dim uint8, maxDeltaNorm float64) {
		n := int(dim%8) + 1 // global model size 1..8
		global := make([]float64, n)
		// Slice the fuzz bytes into updates of varying shapes: parameter
		// values come straight from the raw bits, so NaN, Inf, denormals,
		// and huge magnitudes all occur.
		var updates []Update
		for client := 0; len(data) >= 8 && client < 16; client++ {
			params := make([]float64, 0, n+1)
			take := client%(n+2) + 1 // deliberately wrong lengths too
			for i := 0; i < take && len(data) >= 8; i++ {
				params = append(params, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
				data = data[8:]
			}
			samples := client - 2 // negatives and zeros included
			updates = append(updates, Update{Client: client, Params: params, Samples: samples})
		}
		accepted, rejected := Sanitize(updates, global, math.Abs(maxDeltaNorm))
		if len(accepted)+len(rejected) != len(updates) {
			t.Fatalf("%d in, %d accepted + %d rejected", len(updates), len(accepted), len(rejected))
		}
		for _, rej := range rejected {
			if rej.Reason == "" {
				t.Fatalf("client %d rejected without a reason", rej.Client)
			}
		}
		bound := math.Abs(maxDeltaNorm)
		for _, u := range accepted {
			if len(u.Params) != n {
				t.Fatalf("accepted update with %d params, model has %d", len(u.Params), n)
			}
			if u.Samples <= 0 {
				t.Fatalf("accepted update with %d samples", u.Samples)
			}
			var sq float64
			for i, v := range u.Params {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted non-finite parameter %v", v)
				}
				d := v - global[i]
				sq += d * d
			}
			if bound > 0 && math.Sqrt(sq) > bound*(1+1e-12) {
				t.Fatalf("accepted norm %v beyond bound %v", math.Sqrt(sq), bound)
			}
		}
	})
}
