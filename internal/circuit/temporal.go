package circuit

import (
	"math"

	"albireo/internal/photonics"
	"albireo/internal/units"
)

// TemporalResponse simulates the drop-port power envelope of an MRR
// driven by a modulated input, the analysis behind Figure 4b. The ring
// cavity integrates energy with the photon lifetime, so narrow (low
// k^2) rings blur fast symbols: "a signal will undergo considerable
// loss if the MRR modulation frequency is too high".
//
// The drop-port power envelope is modeled as a first-order low-pass
// with the cavity time constant tau = 1/(pi * df_FWHM) - the standard
// coupled-mode-theory result for the energy buildup of a ring driven
// at resonance.
type TemporalResponse struct {
	// Ring is the device under test.
	Ring photonics.MRR
	// SymbolRate is the OOK modulation rate in hertz (5 GHz in the
	// paper's conservative/moderate designs).
	SymbolRate float64
	// SamplesPerSymbol controls simulation resolution.
	SamplesPerSymbol int
}

// NewTemporalResponse builds the Figure 4b experiment for a ring of
// the given k^2 at the given symbol rate.
func NewTemporalResponse(k2, symbolRate float64) TemporalResponse {
	return TemporalResponse{
		Ring:             photonics.NewMRRWithK2(1550*units.Nano, k2),
		SymbolRate:       symbolRate,
		SamplesPerSymbol: 64,
	}
}

// Drive runs an OOK symbol sequence (each entry 0 or 1, or any
// amplitude in [0,1]) through the ring and returns the drop-port power
// envelope with SamplesPerSymbol samples per symbol. The first-order
// filter state carries across symbol boundaries, producing the
// intersymbol interference visible in Figure 4b.
func (tr TemporalResponse) Drive(symbols []float64) []float64 {
	if tr.SymbolRate <= 0 || tr.SamplesPerSymbol <= 0 {
		return nil
	}
	tau := tr.Ring.PhotonLifetime()
	peak := tr.Ring.DropTransfer(tr.Ring.ResonantWavelength)
	dt := 1 / tr.SymbolRate / float64(tr.SamplesPerSymbol)
	alpha := 1 - math.Exp(-dt/tau)
	out := make([]float64, 0, len(symbols)*tr.SamplesPerSymbol)
	state := 0.0
	for _, s := range symbols {
		target := peak * s
		for k := 0; k < tr.SamplesPerSymbol; k++ {
			state += alpha * (target - state)
			out = append(out, state)
		}
	}
	return out
}

// EyeOpening drives an alternating 1-0-1-0... pattern (the worst-case
// ISI stress) and returns the normalized eye opening: the difference
// between the minimum sampled "1" level and the maximum sampled "0"
// level at symbol centers, divided by the ideal swing. 1.0 is a
// perfect eye; values near 0 mean the ring cannot keep up with the
// symbol rate (the k^2 = 0.02 failure in Figure 4b).
func (tr TemporalResponse) EyeOpening() float64 {
	const nsym = 32
	symbols := make([]float64, nsym)
	for i := range symbols {
		symbols[i] = float64(i % 2)
	}
	trace := tr.Drive(symbols)
	peak := tr.Ring.DropTransfer(tr.Ring.ResonantWavelength)
	if peak <= 0 {
		return 0
	}
	minOne, maxZero := math.Inf(1), math.Inf(-1)
	// Skip the first few symbols to reach steady-state ISI; sample at
	// symbol centers.
	for i := 4; i < nsym; i++ {
		v := trace[i*tr.SamplesPerSymbol+tr.SamplesPerSymbol/2]
		if i%2 == 1 { // a "1" symbol
			if v < minOne {
				minOne = v
			}
		} else {
			if v > maxZero {
				maxZero = v
			}
		}
	}
	eye := (minOne - maxZero) / peak
	if eye < 0 {
		return 0
	}
	return eye
}

// SettledFraction returns the fraction of the steady-state drop power
// reached within a single symbol period - the "temporal consequences
// for decreasing k^2" of Section II-C.2.
func (tr TemporalResponse) SettledFraction() float64 {
	tau := tr.Ring.PhotonLifetime()
	return 1 - math.Exp(-1/(tr.SymbolRate*tau))
}

// RiseTime returns the drop-port envelope's 10-90% rise time in
// seconds: ln(9) photon lifetimes for the first-order cavity response.
func (tr TemporalResponse) RiseTime() float64 {
	return math.Log(9) * tr.Ring.PhotonLifetime()
}
