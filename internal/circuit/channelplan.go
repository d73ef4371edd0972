package circuit

import (
	"fmt"

	"albireo/internal/photonics"
	"albireo/internal/units"
)

// ChannelPlan allocates the distribution wavelengths of a PLCG across
// its PLCUs. Section III-B: "Each PLCU in the PLCG operates on a set
// of inputs that fall into a separate FSR" - the accumulation rings of
// PLCU u are resonant only inside window u, so signals destined for
// other PLCUs pass through untouched. The whole plan must fit inside
// the AWG's 70 nm free spectral range (Table II).
type ChannelPlan struct {
	// PerPLCU is the channel count inside each ring-FSR window (21).
	PerPLCU int
	// PLCUs is the window count (Nu = 3).
	PLCUs int
	// RingFSR is the window width (one ring free spectral range).
	RingFSR float64
	// AWGFSR is the distribution band the plan must fit (70 nm).
	AWGFSR float64
	// Center is the band center wavelength.
	Center float64
}

// NewChannelPlan builds the default plan for a configuration-shaped
// (perPLCU, nPLCU) allocation using the Table II ring and AWG.
func NewChannelPlan(perPLCU, plcus int) ChannelPlan {
	ring := photonics.NewMRR(1550 * units.Nano)
	awg := photonics.NewAWG()
	return ChannelPlan{
		PerPLCU: perPLCU,
		PLCUs:   plcus,
		RingFSR: ring.FSR(),
		AWGFSR:  awg.FSR,
		Center:  ring.ResonantWavelength,
	}
}

// Span returns the wavelength extent of the full plan: PLCUs
// contiguous ring-FSR windows.
func (c ChannelPlan) Span() float64 { return float64(c.PLCUs) * c.RingFSR }

// Fits reports whether the plan fits inside the AWG FSR.
func (c ChannelPlan) Fits() bool { return c.Span() <= c.AWGFSR }

// Window returns the wavelength grid of PLCU u's channels.
func (c ChannelPlan) Window(u int) Grid {
	if u < 0 || u >= c.PLCUs {
		panic(fmt.Sprintf("circuit: window %d out of range", u)) //lint:ignore exit-hygiene window index is a validated invariant; caller bug
	}
	// Windows tile symmetrically around the band center.
	offset := (float64(u) - float64(c.PLCUs-1)/2) * c.RingFSR
	return Grid{Center: c.Center + offset, FSR: c.RingFSR, N: c.PerPLCU}
}

// InterUnitIsolation returns the worst leakage (linear fraction) of
// any other window's channel into a ring tuned within window u.
//
// Ring responses are FSR-periodic and the windows tile at exactly one
// ring FSR, so a foreign channel aliases *directly onto* the
// corresponding local resonance - rings alone provide no inter-window
// isolation. The architecture's actual mechanism is spatial: the AWG
// demultiplexes every wavelength onto its own waveguide toward its own
// PLCU, so foreign channels reach unit u only through AWG crosstalk
// (Table II: -34 dB). The worst leakage is therefore the AWG crosstalk
// times the (aliased, near-unity) ring response.
func (c ChannelPlan) InterUnitIsolation(u int) float64 {
	local := c.Window(u)
	ring := photonics.NewMRR(local.Center)
	awgXT := units.DBToLinear(photonics.NewAWG().CrosstalkDB)
	worst := 0.0
	for v := 0; v < c.PLCUs; v++ {
		if v == u {
			continue
		}
		for _, lambda := range c.Window(v).Wavelengths() {
			for i := 0; i < local.N; i++ {
				r := ring
				r.ResonantWavelength = local.Wavelength(i)
				if t := awgXT * r.DropTransfer(lambda); t > worst {
					worst = t
				}
			}
		}
	}
	return worst
}

// String implements fmt.Stringer.
func (c ChannelPlan) String() string {
	return fmt.Sprintf("plan{%dx%d ch, span %.1f nm of %.0f nm AWG FSR}",
		c.PLCUs, c.PerPLCU, c.Span()/units.Nano, c.AWGFSR/units.Nano)
}
