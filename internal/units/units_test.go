package units

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func TestDBToLinear(t *testing.T) {
	cases := []struct{ db, want float64 }{
		{0, 1},
		{10, 10},
		{-10, 0.1},
		{3, 1.9952623149688795},
		{-3, 0.5011872336272722},
	}
	for _, c := range cases {
		approx(t, DBToLinear(c.db), c.want, 1e-12, "DBToLinear")
	}
}

func TestLinearToDB(t *testing.T) {
	approx(t, LinearToDB(1), 0, 1e-12, "LinearToDB(1)")
	approx(t, LinearToDB(100), 20, 1e-12, "LinearToDB(100)")
	if !math.IsInf(LinearToDB(0), -1) {
		t.Error("LinearToDB(0) should be -Inf")
	}
	if !math.IsInf(LinearToDB(-1), -1) {
		t.Error("LinearToDB(-1) should be -Inf")
	}
}

func TestDBRoundTrip(t *testing.T) {
	f := func(db float64) bool {
		db = math.Mod(db, 100) // keep in a sane range
		back := LinearToDB(DBToLinear(db))
		return math.Abs(back-db) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLossDBToTransmission(t *testing.T) {
	// Table II: MZM insertion loss is 1.2 dB -> ~75.9% transmission.
	approx(t, LossDBToTransmission(1.2), 0.7585775750291836, 1e-12, "1.2 dB loss")
	// Zero loss transmits everything.
	approx(t, LossDBToTransmission(0), 1, 1e-12, "0 dB loss")
	// 3 dB is half power.
	approx(t, LossDBToTransmission(3.0102999566398), 0.5, 1e-9, "3 dB loss")
}

func TestDBmConversions(t *testing.T) {
	approx(t, DBmToWatts(0), 1e-3, 1e-15, "0 dBm = 1 mW")
	approx(t, DBmToWatts(30), 1, 1e-9, "30 dBm = 1 W")
	approx(t, WattsToDBm(1e-3), 0, 1e-9, "1 mW = 0 dBm")
	approx(t, WattsToDBm(2e-3), 3.0102999566398, 1e-9, "2 mW ~ 3 dBm")
	if !math.IsInf(WattsToDBm(0), -1) {
		t.Error("WattsToDBm(0) should be -Inf")
	}
}

func TestWavelengthFrequency(t *testing.T) {
	// 1550 nm is ~193.4 THz, the C-band anchor used throughout the paper.
	f := WavelengthToFrequency(1550 * Nano)
	approx(t, f/Tera, 193.41448903225807, 1e-6, "1550 nm frequency")
	l := FrequencyToWavelength(f)
	approx(t, l/Nano, 1550, 1e-9, "round trip wavelength")
}

func TestWavelengthSpacingToFrequency(t *testing.T) {
	// 0.8 nm at 1550 nm is ~99.84 GHz (standard WDM grid fact).
	df := WavelengthSpacingToFrequency(0.8*Nano, 1550*Nano)
	approx(t, df/Giga, 99.827, 0.01, "0.8 nm spacing")
}

func TestLog2(t *testing.T) {
	approx(t, Log2(450), 8.813781191217037, 1e-12, "log2(450), the paper's example")
	approx(t, Log2(1024), 10, 1e-12, "log2(1024)")
	if !math.IsInf(Log2(0), -1) {
		t.Error("Log2(0) should be -Inf")
	}
}

func TestConstants(t *testing.T) {
	// Exact SI defined values.
	if ElementaryCharge != 1.602176634e-19 {
		t.Error("ElementaryCharge mismatch with SI definition")
	}
	if Boltzmann != 1.380649e-23 {
		t.Error("Boltzmann mismatch with SI definition")
	}
	if LightSpeed != 2.99792458e8 {
		t.Error("LightSpeed mismatch with SI definition")
	}
}

// No binary uses the declarations below; they live with the tests
// that check them.

// DBmToWatts converts optical power in dBm to watts.
func DBmToWatts(dbm float64) float64 {
	return 1e-3 * math.Pow(10, dbm/10)
}

// WattsToDBm converts optical power in watts to dBm.
// Non-positive powers return -Inf.
func WattsToDBm(w float64) float64 {
	if w <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(w/1e-3)
}

// WavelengthToFrequency converts a vacuum wavelength in meters to an
// optical frequency in hertz.
func WavelengthToFrequency(lambda float64) float64 {
	return LightSpeed / lambda
}

// FrequencyToWavelength converts an optical frequency in hertz to a
// vacuum wavelength in meters.
func FrequencyToWavelength(f float64) float64 {
	return LightSpeed / f
}

// WavelengthSpacingToFrequency converts a small wavelength spacing
// dLambda around center wavelength lambda into the equivalent frequency
// spacing |df| = c * dLambda / lambda^2. This is the first-order
// dispersion-free conversion used for WDM channel grids.
func WavelengthSpacingToFrequency(dLambda, lambda float64) float64 {
	return LightSpeed * dLambda / (lambda * lambda)
}
