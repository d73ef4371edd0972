// Design-space exploration: the device-level analyses of Section II-C
// that drive the Albireo architecture - how laser power, MRR coupling,
// and wavelength count set the precision of photonic dot products.
//
//	go run ./examples/designspace
package main

import (
	"fmt"

	"albireo/internal/circuit"
	"albireo/internal/noise"
	"albireo/internal/photonics"
	"albireo/internal/units"
)

func main() {
	// 1. The devices themselves: the Table II ring.
	ring := photonics.NewMRR(1550 * units.Nano)
	fmt.Printf("reference MRR: %v\n", ring)
	fmt.Printf("  bandwidth %.1f GHz, Q %.0f, photon lifetime %.1f ps\n\n",
		ring.Bandwidth()/1e9, ring.QualityFactor(), ring.PhotonLifetime()*1e12)

	// 2. Noise-limited precision (Figure 3): sweep laser power at the
	// PLCU's 21 wavelengths over the full 9-PLCG chip distribution path
	// (~26 dB including the broadcast splits), where the shot/thermal
	// to RIN transition is visible.
	np := noise.DefaultParams()
	pd := photonics.NewPhotodiode()
	path := circuit.AlbireoSignalPath(9, 3)
	fmt.Printf("noise-limited precision at 21 wavelengths (%.1f dB chip path):\n", path.TotalDB())
	for _, mw := range []float64{0.25, 0.5, 1, 2, 4, 8, 16} {
		iPer := pd.Responsivity * path.Deliver(mw*1e-3)
		fmt.Printf("  %5.2f mW laser -> %5.2f bits (%s-limited)\n",
			mw, np.PrecisionBits(iPer, 21), np.DominantSource(iPer, 21))
	}

	// 3. Crosstalk-limited precision (Figure 4c): the k^2 trade at the
	// PLCU wavelength count, with the differential (+/-) bonus bit.
	fmt.Println("\ncrosstalk-limited precision at 21 wavelengths:")
	for _, k2 := range []float64{0.01, 0.02, 0.03, 0.05} {
		xa := circuit.NewCrosstalkAnalysis(k2, 21)
		tr := circuit.NewTemporalResponse(k2, 5e9)
		fmt.Printf("  k^2=%.2f -> %.2f bits single-ended, %.2f differential, eye %.3f @ 5 GHz\n",
			k2, xa.PrecisionBits(), xa.DifferentialPrecisionBits(), tr.EyeOpening())
	}

	// 4. Why 21 wavelengths: precision vs channel count at k^2 = 0.03.
	fmt.Println("\nwavelength scaling at k^2 = 0.03 (differential):")
	for _, n := range []int{9, 15, 21, 33, 45, 63} {
		xa := circuit.NewCrosstalkAnalysis(0.03, n)
		fmt.Printf("  %2d channels -> %.2f bits\n", n, xa.DifferentialPrecisionBits())
	}
	fmt.Println("\nthe paper targets >= 7 bits with k^2 = 0.03; this model holds")
	fmt.Println("them at 15 channels and falls short at 21, the channel count")
	fmt.Println("of Nd = 5 receptive fields per PLCU, which lets Nu = 3 PLCUs")
	fmt.Println("fit inside the 64-wavelength distribution budget.")
}
