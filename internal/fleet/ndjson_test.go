package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
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
		// The collider overwrites each of row's float cache slots, so
		// row encodes once after the collision and once from its own
		// refilled slots.
		collider := plain
		collider.ActiveSec, collider.WallSec, collider.EnergyMJ =
			floatCollider(active), floatCollider(wall), floatCollider(energy)
		checkRowEncoding(t, row, plain, row, collider, row, row)
	})
}

// floatCollider returns a finite float other than v whose bits map to
// v's float cache slot, found by flipping low bits of v (of v with its
// exponent cleared, when v is not finite) until the slot matches.
func floatCollider(v float64) float64 {
	bits := math.Float64bits(v)
	base := bits
	if math.IsNaN(v) || math.IsInf(v, 0) {
		base &^= 0x7ff << 52
	}
	for k := uint64(1); ; k++ {
		if c := base ^ k; floatSlotOf(c) == floatSlotOf(bits) {
			return math.Float64frombits(c)
		}
	}
}

// TestNDJSONSinkFloatCache streams rows through one NDJSONSink, so
// every float goes through one encoder's cache, and requires each line
// to be json.Marshal's bytes plus a newline. The rows repeat values
// (hits), carry pairs of floats that share a cache slot (each
// evicting the other), and include the formatting edge cases.
func TestNDJSONSinkFloatCache(t *testing.T) {
	values := []float64{
		math.Copysign(0, -1), 0, 5e-324, -5e-324, 1e-7, 1e21, -1e21, math.Nextafter(1e21, 0),
		1e-6, math.Nextafter(1e-6, 0), 0.1, 12.5, 0.0123456789, 3.14159, math.MaxFloat64,
		-0.000001234567890123456, 123456789012345678901,
	}
	for _, v := range values[:len(values):len(values)] {
		values = append(values, floatCollider(v))
	}
	if floatSlotOf(math.Float64bits(values[0])) != floatSlotOf(math.Float64bits(values[len(values)/2])) {
		t.Fatal("collider search returned a float in another slot")
	}
	rng := rand.New(rand.NewSource(1))
	var got bytes.Buffer
	sink := NewNDJSONSink(&got)
	var want []byte
	for i := 0; i < 5000; i++ {
		r := Result{
			Name: "dev", Engine: "ace", Completed: true, Predicted: i % 10, Boots: uint64(i % 7),
			ActiveSec: values[rng.Intn(len(values))],
			WallSec:   values[rng.Intn(len(values))],
			EnergymJ:  values[rng.Intn(len(values))],
		}
		if i%500 == 0 { // an occasional fresh value, once
			r.WallSec = rng.NormFloat64()
		}
		if err := sink.Consume(i, r); err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(makeRow(i, r, false))
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, line...), '\n')
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("row %d (%v, %v, %v):\n got %s\nwant %s", i, r.ActiveSec, r.WallSec, r.EnergymJ,
				got.Bytes()[bytes.LastIndexByte(got.Bytes()[:got.Len()-1], '\n')+1:], line)
		}
	}
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

// TestPlainJSONBytes: plainJSON accepts exactly printable ASCII
// less ", \, <, > and &, and encoding/json writes every byte it
// accepts as itself inside a string.
func TestPlainJSONBytes(t *testing.T) {
	for c := 0; c < 256; c++ {
		s := string([]byte{'a', byte(c), 'z'})
		want := c >= 0x20 && c <= 0x7e && !strings.ContainsRune(`"\<>&`, rune(c))
		if plainJSON(s) != want {
			t.Errorf("byte %#x: plainJSON %v, want %v", c, plainJSON(s), want)
		}
		if enc, err := json.Marshal(s); want && (err != nil || string(enc) != `"`+s+`"`) {
			t.Errorf("byte %#x: plain, but encoding/json writes %s (%v)", c, enc, err)
		}
	}
}
