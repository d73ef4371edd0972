package circuit

import (
	"math"
	"testing"

	"albireo/internal/units"
)

func TestDefaultPlanFitsAWG(t *testing.T) {
	t.Parallel()
	// 3 PLCUs x one 16.3 nm ring FSR each = ~49 nm, inside the 70 nm
	// AWG FSR - the allocation Section III-B relies on.
	p := NewChannelPlan(21, 3)
	if !p.Fits() {
		t.Errorf("default plan (span %.1f nm) must fit the 70 nm AWG FSR", p.Span()/units.Nano)
	}
	if p.PerPLCU*p.PLCUs != 63 {
		t.Errorf("total channels = %d, want 63", p.PerPLCU*p.PLCUs)
	}
	// 5 windows would not fit.
	if NewChannelPlan(21, 5).Fits() {
		t.Error("5 ring-FSR windows exceed the AWG FSR")
	}
}

func TestWindowsAreDisjoint(t *testing.T) {
	t.Parallel()
	p := NewChannelPlan(21, 3)
	ws := p.AllWavelengths()
	if len(ws) != 63 {
		t.Fatal("wavelength count")
	}
	for i := 1; i < len(ws); i++ {
		if ws[i] <= ws[i-1] {
			t.Fatalf("wavelengths must ascend across windows at %d", i)
		}
	}
	// Adjacent windows are exactly one ring FSR apart at their
	// centers.
	d := p.Window(1).Center - p.Window(0).Center
	if math.Abs(d-p.RingFSR) > 1e-15 {
		t.Error("windows should tile at the ring FSR")
	}
}

func TestWindowBounds(t *testing.T) {
	t.Parallel()
	p := NewChannelPlan(21, 3)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range window should panic")
		}
	}()
	p.Window(3)
}

func TestInterUnitIsolation(t *testing.T) {
	t.Parallel()
	// Foreign windows alias exactly onto local resonances (the
	// windows tile at one ring FSR), so the isolation comes from the
	// AWG's spatial routing: worst leakage = AWG crosstalk (-34 dB)
	// times a near-unity aliased ring response, i.e. a few times 1e-4.
	p := NewChannelPlan(21, 3)
	iso := p.InterUnitIsolation(1)
	if iso < 1e-5 || iso > 1e-3 {
		t.Errorf("inter-unit leakage %.3g outside the AWG-crosstalk window", iso)
	}
}

func TestPlanString(t *testing.T) {
	t.Parallel()
	if NewChannelPlan(21, 3).String() == "" {
		t.Error("String")
	}
}

// No binary uses the declarations below; they live with the tests
// that check them.

// AllWavelengths returns every channel of the plan in ascending order.
func (c ChannelPlan) AllWavelengths() []float64 {
	out := make([]float64, 0, c.PerPLCU*c.PLCUs)
	for u := 0; u < c.PLCUs; u++ {
		out = append(out, c.Window(u).Wavelengths()...)
	}
	return out
}
