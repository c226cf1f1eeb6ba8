package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// checkRowEncoding encodes rows through one rowEncoder (so its buffer
// is reused) and through json.Encoder, and requires the same bytes
// and the same error verdict for every row. A failed row writes
// nothing on either side.
func checkRowEncoding(t *testing.T, rows ...NDJSONRow) {
	t.Helper()
	var got, want bytes.Buffer
	e := rowEncoder{w: &got}
	enc := json.NewEncoder(&want)
	for k := range rows {
		gotErr := e.encode(&rows[k])
		wantErr := enc.Encode(rows[k])
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("row %+v: error %v, json.Encoder %v", rows[k], gotErr, wantErr)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("row %+v:\n got %s\nwant %s", rows[k], got.Bytes(), want.Bytes())
		}
	}
}

// FuzzNDJSONRow: the append encoder writes exactly json.Encoder's
// bytes for any row, and fails exactly when it does.
func FuzzNDJSONRow(f *testing.F) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 12.5, 1e20, 123456789.125,
		1e-6, -1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), math.Nextafter(-1e-6, 0),
		1e21, -1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
		1e-7, 1.5e-10, 1e-100, 1e300, math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	strs := []string{
		"", "rooftop/17", "ace+flex", `<b>&amp;</b>`, "a<b", "a>b", "a&b", `"`, `\`, "~\x7f",
		"line\u2028sep\u2029", "\xff\xfe", "bad\xc3",
		"\x00\x01\x1f\x7f", `quote " and \ backslash`, "tab\there\nnewline", "héllo", "\u00e9\U0001F600",
	}
	for k, v := range floats {
		s := strs[k%len(strs)]
		f.Add(k, s, "ace", s, k%2 == 0, k-3, uint64(k), v, floats[(k+1)%len(floats)], v, s, uint64(k%3), s, s)
	}
	f.Add(0, "", "", "", false, 0, uint64(0), 0.0, 0.0, 0.0, "", uint64(0), "", "")
	f.Add(math.MaxInt, "d", "e", "p", true, math.MinInt, uint64(math.MaxUint64), 1.0, 2.0, 3.0, "diag", uint64(math.MaxUint64), "err", "hit-full")
	f.Fuzz(func(t *testing.T, i int, device, engine, profile string, completed bool, predicted int,
		boots uint64, active, wall, energy float64, diag string, ff uint64, errS, memoTag string) {
		row := NDJSONRow{
			Index: i, Device: device, Engine: engine, Profile: profile, Completed: completed,
			Predicted: predicted, Boots: boots, ActiveSec: active, WallSec: wall, EnergyMJ: energy,
			Diag: diag, FFBoots: ff, Err: errS, Memo: memoTag,
		}
		plain := row
		plain.Device, plain.Engine, plain.Profile, plain.Diag, plain.Err, plain.Memo = "dev", "ace", "", "", "", ""
		checkRowEncoding(t, row, plain, row)
	})
}

// TestNDJSONRowRandomFloats: random bit patterns and values around
// the 'e'-format boundaries encode as json.Encoder encodes them.
func TestNDJSONRowRandomFloats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := make([]NDJSONRow, 20000)
	for k := range rows {
		scale := math.Pow(10, float64(rng.Intn(60)-30))
		rows[k] = NDJSONRow{
			Index:     k,
			Device:    "dev",
			Engine:    "tails",
			ActiveSec: math.Float64frombits(rng.Uint64()),
			WallSec:   rng.NormFloat64() * scale,
			EnergyMJ:  float64(rng.Intn(3)-1) * math.Nextafter(1e-6, float64(rng.Intn(3)-1)),
		}
	}
	checkRowEncoding(t, rows...)
}
