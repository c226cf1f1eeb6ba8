package flex

import (
	"testing"
	"testing/quick"

	"ehdl/internal/device"
	"ehdl/internal/fftfixed"
	"ehdl/internal/fixed"
)

func newDev() *device.Device {
	return device.New(device.DefaultCosts(), device.Continuous{})
}

func TestPackUnpackCtrlRoundTrip(t *testing.T) {
	err := quick.Check(func(layer uint8, i uint16, j uint16, state uint8) bool {
		s := Snapshot{
			Layer: int(layer),
			State: state % 4,
			I:     int(i),
			J:     int(j),
		}
		if s.State == StateElement {
			s.Elem = int(i)
			s.I = 0
			s.J = 0 // element snapshots carry no block coords
		}
		got, ok := unpackCtrl(packCtrl(s))
		if !ok {
			return false
		}
		if s.State == StateElement {
			return got.Layer == s.Layer && got.State == s.State && got.Elem == s.Elem
		}
		return got.Layer == s.Layer && got.State == s.State && got.I == s.I && got.J == s.J
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestUnpackInvalidCtrl(t *testing.T) {
	if _, ok := unpackCtrl(0); ok {
		t.Error("zero control word must be invalid")
	}
}

func TestConfigValidation(t *testing.T) {
	d := newDev()
	if _, err := NewController(d, 8, Config{VWarn: 0, SampleStride: 4}); err == nil {
		t.Error("VWarn 0 accepted")
	}
	if _, err := NewController(d, 8, Config{VWarn: 2, SampleStride: 0}); err == nil {
		t.Error("SampleStride 0 accepted")
	}
}

func TestCommitRestoreElementSnapshot(t *testing.T) {
	d := newDev()
	c, err := NewController(d, 8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Commit(d, Snapshot{Layer: 3, State: StateElement, Elem: 412, Pos: 99})
	s, ok := c.Restore(d, func(s Snapshot) uint64 { return 99 })
	if !ok {
		t.Fatal("restore failed after commit")
	}
	if s.Layer != 3 || s.State != StateElement || s.Elem != 412 || s.Pos != 99 {
		t.Errorf("restored %+v", s)
	}
}

func TestCommitRestoreBCMSnapshotWithPayload(t *testing.T) {
	d := newDev()
	c, err := NewController(d, 8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	acc := []fixed.Q15{1, -2, 3, -4, 5, -6, 7, -8}
	inter := make([]fftfixed.Complex, 8)
	for i := range inter {
		inter[i] = fftfixed.Complex{Re: fixed.Q15(10 * i), Im: fixed.Q15(-3 * i)}
	}
	c.Commit(d, Snapshot{Layer: 4, State: StatePostMPY, I: 1, J: 2, Pos: 50,
		Acc: acc, Inter: inter})

	s, ok := c.Restore(d, func(Snapshot) uint64 { return 50 })
	if !ok {
		t.Fatal("restore failed")
	}
	if s.State != StatePostMPY || s.I != 1 || s.J != 2 {
		t.Errorf("restored %+v", s)
	}
	gotAcc := make([]fixed.Q15, 8)
	c.LoadAcc(d, gotAcc)
	for i := range acc {
		if gotAcc[i] != acc[i] {
			t.Fatalf("acc[%d] = %d, want %d", i, gotAcc[i], acc[i])
		}
	}
	gotInter := make([]fftfixed.Complex, 8)
	c.LoadInter(d, gotInter)
	for i := range inter {
		if gotInter[i] != inter[i] {
			t.Fatalf("inter[%d] = %+v, want %+v", i, gotInter[i], inter[i])
		}
	}
}

func TestRestoreFreshControllerIsInvalid(t *testing.T) {
	d := newDev()
	c, err := NewController(d, 8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Restore(d, func(Snapshot) uint64 { return 0 }); ok {
		t.Error("fresh controller restored a snapshot")
	}
	if c.Position() != 0 {
		t.Errorf("fresh Position = %d", c.Position())
	}
}

// lowSupply reports a voltage below any warn threshold.
type lowSupply struct{}

func (lowSupply) Draw(nJ, dt float64) bool  { return true }
func (lowSupply) Voltage() float64          { return 1.9 }
func (lowSupply) Recharge() (float64, bool) { return 0, true }

func TestBoundarySamplesOnStrideAndCommitsWhenLow(t *testing.T) {
	d := device.New(device.DefaultCosts(), lowSupply{})
	c, err := NewController(d, 8, Config{VWarn: 2.1, SampleStride: 4})
	if err != nil {
		t.Fatal(err)
	}
	commits := 0
	for pos := uint64(1); pos <= 12; pos++ {
		p := pos
		c.Boundary(d, p, func() Snapshot {
			commits++
			return Snapshot{Layer: 0, State: StateElement, Elem: int(p), Pos: p}
		})
	}
	// 12 boundaries, stride 4 → 3 samples, all low, distinct positions
	// → 3 commits.
	if commits != 3 {
		t.Errorf("commits = %d, want 3", commits)
	}
}

func TestBoundarySuppressesDuplicatePosition(t *testing.T) {
	d := device.New(device.DefaultCosts(), lowSupply{})
	c, err := NewController(d, 8, Config{VWarn: 2.1, SampleStride: 1})
	if err != nil {
		t.Fatal(err)
	}
	commits := 0
	snap := func() Snapshot {
		commits++
		return Snapshot{Layer: 0, State: StateElement, Elem: 5, Pos: 7}
	}
	c.Boundary(d, 7, snap)
	c.Boundary(d, 7, snap) // same position: must not re-commit
	if commits != 1 {
		t.Errorf("commits = %d, want 1", commits)
	}
	c.Boundary(d, 8, snap)
	if commits != 2 {
		t.Errorf("commits after new position = %d, want 2", commits)
	}
}

func TestBoundaryQuietWhenVoltageHigh(t *testing.T) {
	d := newDev() // Continuous: 3.3 V
	c, err := NewController(d, 8, Config{VWarn: 2.1, SampleStride: 1})
	if err != nil {
		t.Fatal(err)
	}
	for pos := uint64(1); pos <= 50; pos++ {
		c.Boundary(d, pos, func() Snapshot {
			t.Fatal("committed under healthy rail")
			return Snapshot{}
		})
	}
	if got := d.Stats().Energy[device.CatCheckpoint]; got != 0 {
		t.Errorf("checkpoint energy = %v under continuous power", got)
	}
}

func TestCheckpointCostWithinPaperBound(t *testing.T) {
	// §IV-A.5: every checkpoint/restore costs at most 0.033 mJ, the
	// worst case being the FFT-based BCM state of the largest block.
	d := newDev()
	c, err := NewController(d, 256, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	acc := make([]fixed.Q15, 256)
	inter := make([]fftfixed.Complex, 256)
	before := d.Stats().Energy[device.CatCheckpoint]
	c.Commit(d, Snapshot{Layer: 1, State: StatePostMPY, I: 0, J: 0, Pos: 1,
		Acc: acc, Inter: inter})
	cost := d.Stats().Energy[device.CatCheckpoint] - before
	if costmJ := cost * 1e-6; costmJ > 0.033 {
		t.Errorf("checkpoint cost %.4f mJ exceeds the paper's 0.033 mJ bound", costmJ)
	}
}

func TestZeroMaxKController(t *testing.T) {
	d := newDev()
	c, err := NewController(d, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Commit(d, Snapshot{Layer: 1, State: StateElement, Elem: 9, Pos: 2})
	s, ok := c.Restore(d, func(Snapshot) uint64 { return 2 })
	if !ok || s.Elem != 9 {
		t.Errorf("element-only controller broken: %+v ok=%v", s, ok)
	}
}

// A commit with a shorter accumulator or intermediate than the last
// one must persist zeros past it, not the last commit's words: the
// committed words feed the device's persistent-write ledger.
func TestCommitZeroPadsShortPayload(t *testing.T) {
	d := newDev()
	c, err := NewController(d, 8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fill := func(n int, v fixed.Q15) ([]fixed.Q15, []fftfixed.Complex) {
		acc := make([]fixed.Q15, n)
		inter := make([]fftfixed.Complex, n)
		for i := range acc {
			acc[i] = v
			inter[i] = fftfixed.Complex{Re: v, Im: -v}
		}
		return acc, inter
	}
	acc, inter := fill(8, 0x1111)
	c.Commit(d, Snapshot{Layer: 1, State: StatePostMPY, Acc: acc, Inter: inter, Pos: 1})
	acc, inter = fill(4, 0x2222)
	c.Commit(d, Snapshot{Layer: 1, State: StatePostMPY, Acc: acc, Inter: inter, Pos: 2})

	gotAcc := make([]fixed.Q15, 8)
	c.LoadAcc(d, gotAcc)
	gotInter := make([]fftfixed.Complex, 8)
	c.LoadInter(d, gotInter)
	for i := range gotAcc {
		wantAcc, wantInter := fixed.Q15(0), fftfixed.Complex{}
		if i < 4 {
			wantAcc, wantInter = 0x2222, fftfixed.Complex{Re: 0x2222, Im: -0x2222}
		}
		if gotAcc[i] != wantAcc || gotInter[i] != wantInter {
			t.Errorf("word %d: acc %#x inter %+v, want %#x %+v", i, gotAcc[i], gotInter[i], wantAcc, wantInter)
		}
	}
}
