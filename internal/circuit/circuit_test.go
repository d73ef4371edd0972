package circuit

import (
	"math"
	"testing"

	"albireo/internal/noise"
	"albireo/internal/photonics"
	"albireo/internal/units"
)

func TestGridLayout(t *testing.T) {
	t.Parallel()
	ring := photonics.NewMRR(1550 * units.Nano)
	g := NewGrid(ring, 21)
	if g.N != 21 {
		t.Fatal("grid channel count")
	}
	// Pitch is FSR/N.
	if math.Abs(g.Spacing()-ring.FSR()/21) > 1e-18 {
		t.Error("spacing should be FSR/N")
	}
	// Symmetric around the center: middle channel of an odd grid sits
	// exactly at the center wavelength.
	if math.Abs(g.Wavelength(10)-g.Center) > 1e-18 {
		t.Error("odd grid should center its middle channel")
	}
	ws := g.Wavelengths()
	if len(ws) != 21 {
		t.Fatal("wavelength list length")
	}
	for i := 1; i < len(ws); i++ {
		if math.Abs((ws[i]-ws[i-1])-g.Spacing()) > 1e-18 {
			t.Error("grid must be equally spaced")
		}
	}
	// All channels fit inside one FSR.
	if ws[len(ws)-1]-ws[0] >= g.FSR {
		t.Error("grid span must stay within the FSR")
	}
}

func TestGridDegenerate(t *testing.T) {
	t.Parallel()
	g := Grid{Center: 1550e-9, FSR: 16e-9, N: 0}
	if g.Spacing() != 0 || len(g.Wavelengths()) != 0 {
		t.Error("empty grid should be harmless")
	}
}

func TestCrosstalkDecreasesWithK2(t *testing.T) {
	t.Parallel()
	// Figure 4a/4c: lower k^2 narrows the resonance and reduces
	// crosstalk at fixed channel count.
	x03 := NewCrosstalkAnalysis(0.03, 20).WorstChannelCrosstalk()
	x02 := NewCrosstalkAnalysis(0.02, 20).WorstChannelCrosstalk()
	x05 := NewCrosstalkAnalysis(0.05, 20).WorstChannelCrosstalk()
	if !(x02 < x03 && x03 < x05) {
		t.Errorf("crosstalk ordering wrong: k2=0.02 %g, 0.03 %g, 0.05 %g", x02, x03, x05)
	}
}

func TestCrosstalkGrowsWithChannels(t *testing.T) {
	t.Parallel()
	prev := 0.0
	for _, n := range []int{5, 10, 20, 40} {
		x := NewCrosstalkAnalysis(0.03, n).WorstChannelCrosstalk()
		if x <= prev {
			t.Errorf("crosstalk should grow with channel density at n=%d", n)
		}
		prev = x
	}
}

func TestFig4cAnchors(t *testing.T) {
	t.Parallel()
	// Paper Section II-C.2 anchors:
	// "For around 20 wavelengths, k2=0.03 can support 6 bits ...
	// positive accumulation [only]".
	b := NewCrosstalkAnalysis(0.03, 20).PrecisionBits()
	if b < 5.5 || b > 7.0 {
		t.Errorf("k2=0.03 @ 20 channels: %.2f bits, want ~6", b)
	}
	// "7 bits is the worst case precision for k2=0.03 with 20
	// wavelengths" with differential accumulation.
	d := NewCrosstalkAnalysis(0.03, 20).DifferentialPrecisionBits()
	if d < 6.5 || d > 8.0 {
		t.Errorf("differential k2=0.03 @ 20: %.2f bits, want ~7", d)
	}
	// "both k2=0.02 and k2=0.03 can support 8 bits of precision for a
	// small number of wavelengths".
	if b8 := NewCrosstalkAnalysis(0.03, 8).PrecisionBits(); b8 < 8 {
		t.Errorf("k2=0.03 @ 8 channels: %.2f bits, want >= 8", b8)
	}
	if b8 := NewCrosstalkAnalysis(0.02, 8).PrecisionBits(); b8 < 8 {
		t.Errorf("k2=0.02 @ 8 channels: %.2f bits, want >= 8", b8)
	}
}

func TestCrosstalkMatrixProperties(t *testing.T) {
	t.Parallel()
	c := NewCrosstalkAnalysis(0.03, 9)
	m := c.CrosstalkMatrix()
	if len(m) != 9 {
		t.Fatal("matrix dimension")
	}
	for i := range m {
		if m[i][i] != 1 {
			t.Error("diagonal should be unity (normalized peak)")
		}
		for j := range m[i] {
			if i == j {
				continue
			}
			if m[i][j] <= 0 || m[i][j] >= 0.5 {
				t.Errorf("off-diagonal leakage [%d][%d] = %g out of range", i, j, m[i][j])
			}
		}
	}
	// Row crosstalk sums must match ChannelCrosstalk.
	var sum float64
	for j := range m[4] {
		if j != 4 {
			sum += m[4][j]
		}
	}
	if math.Abs(sum-c.ChannelCrosstalk(4)) > 1e-12 {
		t.Error("matrix row inconsistent with ChannelCrosstalk")
	}
}

func TestSystemPrecisionTakesMinimum(t *testing.T) {
	t.Parallel()
	c := NewCrosstalkAnalysis(0.03, 20)
	np := noise.DefaultParams()
	// Plenty of optical power: crosstalk limited.
	rich := c.SystemPrecision(np, 1e-3, false)
	if math.Abs(rich-c.PrecisionBits()) > 1e-9 {
		t.Error("high power should be crosstalk limited")
	}
	// Starved: noise limited, below the crosstalk bound.
	poor := c.SystemPrecision(np, 1e-9, false)
	if poor >= c.PrecisionBits() {
		t.Error("low power should be noise limited")
	}
	// Differential buys a bit when crosstalk limited.
	diff := c.SystemPrecision(np, 1e-3, true)
	if math.Abs(diff-rich-1) > 1e-9 {
		t.Error("differential should add one bit in the crosstalk limit")
	}
}

func TestTemporalRiseTimeOrdering(t *testing.T) {
	t.Parallel()
	// Figure 4b: lower k^2 means a slower ring.
	fast := NewTemporalResponse(0.05, 5e9)
	mid := NewTemporalResponse(0.03, 5e9)
	slow := NewTemporalResponse(0.02, 5e9)
	if !(slow.Ring.PhotonLifetime() > mid.Ring.PhotonLifetime() &&
		mid.Ring.PhotonLifetime() > fast.Ring.PhotonLifetime()) {
		t.Error("photon lifetime should grow as k^2 shrinks")
	}
	if !(slow.SettledFraction() < mid.SettledFraction()) {
		t.Error("k2=0.02 should settle less within a symbol than k2=0.03")
	}
}

func TestTemporalStepResponse(t *testing.T) {
	t.Parallel()
	tr := NewTemporalResponse(0.03, 5e9)
	dt := 1e-12
	step := tr.StepResponse(500e-12, dt)
	if step[0] != 0 {
		t.Error("step response must start at zero")
	}
	peak := tr.Ring.DropTransfer(tr.Ring.ResonantWavelength)
	last := step[len(step)-1]
	if math.Abs(last-peak) > 0.01*peak {
		t.Errorf("step response should settle to the drop peak: %g vs %g", last, peak)
	}
	// Monotone rise.
	for i := 1; i < len(step); i++ {
		if step[i] < step[i-1] {
			t.Fatal("step response must be monotone")
		}
	}
	// At t = tau the response is 1 - 1/e of the peak.
	tau := tr.Ring.PhotonLifetime()
	idx := int(tau / dt)
	want := peak * (1 - math.Exp(-1))
	if math.Abs(step[idx]-want) > 0.05*peak {
		t.Errorf("response at tau = %g, want %g", step[idx], want)
	}
}

func TestEyeOpeningDegradesWithRate(t *testing.T) {
	t.Parallel()
	// Both rings are comfortable at 5 GHz; pushing the symbol rate
	// closes the k2=0.02 eye first - the Figure 4b trade-off.
	for _, rate := range []float64{5e9, 20e9, 40e9} {
		e02 := NewTemporalResponse(0.02, rate).EyeOpening()
		e03 := NewTemporalResponse(0.03, rate).EyeOpening()
		if e02 > e03+1e-9 {
			t.Errorf("k2=0.02 eye (%.3f) should not beat k2=0.03 (%.3f) at %g GHz", e02, e03, rate/1e9)
		}
	}
	slow := NewTemporalResponse(0.02, 60e9).EyeOpening()
	fast := NewTemporalResponse(0.02, 5e9).EyeOpening()
	if slow >= fast {
		t.Error("eye must close as the symbol rate rises")
	}
}

func TestDriveEnvelope(t *testing.T) {
	t.Parallel()
	tr := NewTemporalResponse(0.03, 5e9)
	trace := tr.Drive([]float64{1, 1, 0, 0})
	if len(trace) != 4*tr.SamplesPerSymbol {
		t.Fatal("trace length")
	}
	peak := tr.Ring.DropTransfer(tr.Ring.ResonantWavelength)
	// End of the double-1 period is near peak; end of the double-0 is
	// near zero.
	if v := trace[2*tr.SamplesPerSymbol-1]; math.Abs(v-peak) > 0.05*peak {
		t.Errorf("after two 1-symbols envelope = %g, want ~%g", v, peak)
	}
	if v := trace[len(trace)-1]; v > 0.05*peak {
		t.Errorf("after two 0-symbols envelope = %g, want ~0", v)
	}
	// Degenerate configurations return nil.
	bad := tr
	bad.SymbolRate = 0
	if bad.Drive([]float64{1}) != nil {
		t.Error("zero symbol rate should return nil")
	}
}

func TestPathLossComposition(t *testing.T) {
	t.Parallel()
	p := NewPathLoss().AddDB(3).AddDB(2)
	if math.Abs(p.TotalDB()-5) > 1e-12 {
		t.Error("dB stages should add")
	}
	p.AddSplit(4)
	wantDB := 5 + 10*math.Log10(4)
	if math.Abs(p.TotalDB()-wantDB) > 1e-9 {
		t.Error("splits should add their dB equivalent")
	}
	if math.Abs(p.Deliver(1)-units.DBToLinear(-wantDB)) > 1e-12 {
		t.Error("delivered power inconsistent with total dB")
	}
	// Split of 1 or less is a no-op.
	q := NewPathLoss().AddSplit(1).AddSplit(0)
	if q.Transmission() != 1 {
		t.Error("degenerate splits should not attenuate")
	}
}

func TestAlbireoSignalPathBudget(t *testing.T) {
	t.Parallel()
	p := AlbireoSignalPath(9, 3)
	db := p.TotalDB()
	// The end-to-end budget should land in the high-teens to low-20s
	// dB: 0.39 + 4*0.3 + 12.04(split 16) + 2 + 1.3 + 4.77(split 3)
	// + 1.2 + 0.39 + 3 = ~26 dB.
	if db < 20 || db > 30 {
		t.Errorf("signal path budget %.1f dB outside the expected window", db)
	}
	// A single-PLCG chip avoids broadcast splitting and must be
	// substantially cheaper.
	single := AlbireoSignalPath(1, 3)
	if single.TotalDB() >= db-10 {
		t.Error("single-group path should save the broadcast split")
	}
}

// No binary uses the declarations below; they live with the tests
// that check them.

// SystemPrecision combines the crosstalk limit with the noise limit of
// internal/noise at the given per-channel photocurrent: the system
// supports only as many levels as the tighter of the two constraints.
func (c CrosstalkAnalysis) SystemPrecision(np noise.Params, iPer float64, differential bool) float64 {
	xBits := c.PrecisionBits()
	if differential {
		xBits = c.DifferentialPrecisionBits()
	}
	nBits := np.PrecisionBits(iPer, c.Grid.N)
	return math.Min(xBits, nBits)
}

// StepResponse returns the drop-port power envelope over the given
// duration after the input switches from 0 to full scale at t = 0,
// sampled at dt intervals. The steady-state value is the ring's
// on-resonance drop transfer.
func (tr TemporalResponse) StepResponse(duration, dt float64) []float64 {
	tau := tr.Ring.PhotonLifetime()
	peak := tr.Ring.DropTransfer(tr.Ring.ResonantWavelength)
	n := int(duration/dt) + 1
	out := make([]float64, n)
	for i := range out {
		t := float64(i) * dt
		out[i] = peak * (1 - math.Exp(-t/tau))
	}
	return out
}
