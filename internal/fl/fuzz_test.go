package fl

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// fuzzUpdates decodes fuzz bytes into at most 16 client updates against a
// model of n parameters. Each update is a two-byte header, then its
// parameters as raw little-endian float64 bits, so NaN, ±Inf, denormals
// and huge magnitudes all occur. The first header byte is the sample count
// as a signed byte (zero and negatives included); the second picks the
// length: n unless it is a multiple of 4, else a length in [0, n+1].
func fuzzUpdates(data []byte, n int) []Update {
	var updates []Update
	for client := 0; len(data) >= 2 && client < 16; client++ {
		samples, lenSel := int(int8(data[0])), data[1]
		data = data[2:]
		take := n
		if lenSel%4 == 0 {
			take = int(lenSel/4) % (n + 2)
		}
		params := make([]float64, 0, take)
		for i := 0; i < take && len(data) >= 8; i++ {
			params = append(params, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
			data = data[8:]
		}
		updates = append(updates, Update{Client: client, Params: params, Samples: samples})
	}
	return updates
}

// fuzzUpdateBytes encodes one right-length update of the given samples
// whose parameters all equal v, in fuzzUpdates' format.
func fuzzUpdateBytes(samples int8, n int, v float64) []byte {
	b := []byte{byte(samples), 1}
	for i := 0; i < n; i++ {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzAggregate feeds arbitrary client updates to Server.Aggregate.
// Whatever the bytes say, Aggregate must never panic, and must either
// refuse the round and leave the global vector bit-identical, or accept it
// and leave every entry finite. It accepts only right-sized updates with
// positive samples and finite parameters, and a *CorruptUpdateError names
// a client whose upload holds a non-finite parameter.
func FuzzAggregate(f *testing.F) {
	var overflow []byte
	for i := 0; i < 11; i++ {
		overflow = append(overflow, fuzzUpdateBytes(1, 1, math.MaxFloat64)...)
	}
	f.Add([]byte{}, uint8(3))
	f.Add(append(fuzzUpdateBytes(5, 2, 0.25), fuzzUpdateBytes(7, 2, -1)...), uint8(1))
	f.Add(append(fuzzUpdateBytes(5, 1, 1), fuzzUpdateBytes(3, 1, math.Inf(1))...), uint8(0))
	f.Add(append(fuzzUpdateBytes(0, 4, 1), fuzzUpdateBytes(2, 4, math.NaN())...), uint8(3))
	f.Add([]byte{4, 8, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, uint8(2)) // one short update
	f.Add(overflow, uint8(0))                                   // eleven MaxFloat64 uploads

	f.Fuzz(func(t *testing.T, data []byte, dim uint8) {
		n := int(dim%8) + 1
		global := make([]float64, n)
		for i := range global {
			global[i] = float64(i) - 1.5
		}
		srv := &Server{global: append([]float64(nil), global...)}
		updates := fuzzUpdates(data, n)

		err := srv.Aggregate(updates)
		got := srv.GlobalInto(nil)
		if err != nil {
			for i := range global {
				if math.Float64bits(got[i]) != math.Float64bits(global[i]) {
					t.Fatalf("refused round (%v) changed global[%d] %v -> %v", err, i, global[i], got[i])
				}
			}
			var corrupt *CorruptUpdateError
			if errors.As(err, &corrupt) {
				if _, bad := firstNonFinite(updates[corrupt.Client].Params); !bad {
					t.Fatalf("blamed client %d, whose upload is finite", corrupt.Client)
				}
			}
			return
		}
		if len(updates) == 0 {
			t.Fatal("accepted an empty round")
		}
		for _, u := range updates {
			if len(u.Params) != n || u.Samples <= 0 {
				t.Fatalf("accepted client %d with %d params and %d samples", u.Client, len(u.Params), u.Samples)
			}
			if _, bad := firstNonFinite(u.Params); bad {
				t.Fatalf("accepted client %d with a non-finite parameter", u.Client)
			}
		}
		if j, bad := firstNonFinite(got); bad {
			t.Fatalf("accepted round left global[%d] = %v", j, got[j])
		}
	})
}
