package memo

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"ehdl/internal/core"
	"ehdl/internal/fixed"
)

// TestKeyPlainMemory: Key must be hashable and comparable as one block
// of memory — no padding, and nothing the map has to hash by value
// (strings, pointers, interfaces, floats).
func TestKeyPlainMemory(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Bool,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			var sum uintptr
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				sum += f.Type.Size()
				walk(path+"."+f.Name, f.Type)
			}
			if sum != ty.Size() {
				t.Errorf("%s: %d bytes of fields in %d bytes: padded", path, sum, ty.Size())
			}
		default:
			t.Errorf("%s is a %s, not plain memory", path, ty.Kind())
		}
	}
	walk("Key", reflect.TypeOf(Key{}))
	if got := unsafe.Sizeof(Key{}); got != 80 {
		t.Errorf("Key is %d bytes, want 80", got)
	}
}

// TestKeyCodeInjective: keys that differ only in tier, engine code,
// discipline or input length differ, and an input length never bleeds
// into the engine or tier bits.
func TestKeyCodeInjective(t *testing.T) {
	var engineCodes []uint8
	for k := range engines {
		engineCodes = append(engineCodes, uint8(k+1))
	}
	codes := map[uint8][]uint8{
		tierFull:       engineCodes,
		tierCompute:    engineCodes,
		tierTrajectory: engineCodes,
		tierPrediction: {disciplineTime, disciplineFFT},
	}
	lengths := []int{0, 1, 3, 784, 1<<16 - 1, 1 << 16, 1<<16 + 1, 1 << 17, 1<<32 + 5, 1 << 47, maxInputLen}
	p := probe(t, dev())
	seen := map[Key]string{}
	for tier, codes := range codes {
		for _, code := range codes {
			for _, n := range lengths {
				c := keyCode(tier, code, n)
				if c>>codeTierShift != uint64(tier) || c>>codeEngineShift&0xff != uint64(code) || c&maxInputLen != uint64(n) {
					t.Errorf("keyCode(%d, %d, %d) = %#x does not unpack", tier, code, n, c)
				}
				k := Key{Model: p.model, Input: p.input, Harvest: p.harvest, Code: c}
				name := fmt.Sprintf("(tier %d, code %d, length %d)", tier, code, n)
				if prev, dup := seen[k]; dup {
					t.Errorf("tier/code/length %v and %v share a key", prev, name)
				}
				seen[k] = name
			}
		}
	}

	// Through probes: every engine gets its own full, compute and
	// trajectory keys, and a prediction key shared exactly with the
	// engines of its discipline.
	for _, n := range []int{3, 1 << 16, 1<<16 + 1, 1 << 17} {
		in := make([]fixed.Q15, n)
		in[0] = 1
		keys := map[Key]core.EngineKind{}
		pred := map[Key][]core.EngineKind{}
		for _, e := range engines {
			d := dev()
			d.Engine, d.Input = string(e), in
			p := probe(t, d)
			for _, k := range []Key{p.full(), p.computK(), p.trajectory()} {
				if prev, dup := keys[k]; dup {
					t.Errorf("n=%d: %s and %s share a key", n, prev, e)
				}
				keys[k] = e
			}
			if got := p.trajectory().Code & maxInputLen; got != uint64(n) {
				t.Errorf("n=%d %s: trajectory key counts %d words", n, e, got)
			}
			pred[p.prediction()] = append(pred[p.prediction()], e)
		}
		if len(pred) != 2 {
			t.Fatalf("n=%d: %d prediction keys across engines, want one per discipline: %v", n, len(pred), pred)
		}
		for _, es := range pred {
			fft := es[0] == core.EngineACE || es[0] == core.EngineACEFLEX
			for _, e := range es[1:] {
				if (e == core.EngineACE || e == core.EngineACEFLEX) != fft {
					t.Errorf("n=%d: %v share a prediction key across disciplines", n, es)
				}
			}
		}
	}
}
