package tails

import (
	"slices"
	"testing"

	"ehdl/internal/device"
	"ehdl/internal/fixed"
)

// A BCM row narrower than the widest layer must commit zeros past its
// accumulator, not the previous row's words: the committed words feed
// the device's persistent-write ledger.
func TestCommitBCMRowZeroPadsNarrowRow(t *testing.T) {
	d := device.New(device.DefaultCosts(), device.Continuous{})
	const k = 4
	st, err := device.NewNVDoubleQ15(d, 2*k+3)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{bcmState: st, bcmMaxK: k, bcmRow: make([]fixed.Q15, 2*k+3)}
	e.commitBCMRow(d, 7, 2, []fixed.Q31{-1, -1, -1, -1})
	e.commitBCMRow(d, 8, 1, []fixed.Q31{5, 6})

	got := make([]fixed.Q15, 2*k+3)
	st.Load(d, device.CatRestore, got)
	if want := []fixed.Q15{5, 0, 6, 0, 0, 0, 0, 0, 1, 8, 0}; !slices.Equal(got, want) {
		t.Fatalf("committed row %v, want %v", got, want)
	}
	acc := make([]fixed.Q31, 2)
	if j := e.restoreBCMRow(d, 8, acc); j != 1 || acc[0] != 5 || acc[1] != 6 {
		t.Fatalf("restored j=%d acc=%v, want 1 [5 6]", j, acc)
	}
}
