package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"albireo/internal/circuit"
	"albireo/internal/noise"
)

// refPLCU is the analog datapath as it stood before the shared
// crosstalk table: a private crosstalk matrix read through per-tap bus
// channel lists, the fault list scanned for every ring on every cycle,
// and the noise sigma recomposed for every column. accumulate and
// ringGain below are kept verbatim; PLCU.accumulate must match them
// bit for bit.
type refPLCU struct {
	cfg         Config
	unitCurrent float64
	xtalk       [][]float64
	busChannels [][]int
	np          noise.Params
	rng         *rand.Rand
	faults      []Fault
	cycles      int64
}

func newRefPLCU(cfg Config) *refPLCU {
	p := NewPLCU(cfg)
	nw := cfg.WavelengthsPerPLCU()
	xa := circuit.NewCrosstalkAnalysis(cfg.K2, nw)
	var xt [][]float64
	if !cfg.DisableCrosstalk {
		xt = xa.CrosstalkMatrix()
	}
	bus := make([][]int, cfg.Nm)
	for t := 0; t < cfg.Nm; t++ {
		cols := make([]int, cfg.Nd)
		for d := 0; d < cfg.Nd; d++ {
			cols[d] = cfg.gridChannel(t, d)
		}
		bus[t] = cols
	}
	np := noise.DefaultParams()
	np.Bandwidth = cfg.ModulationRate()
	return &refPLCU{
		cfg:         cfg,
		unitCurrent: p.UnitCurrent(),
		xtalk:       xt,
		busChannels: bus,
		np:          np,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
	}
}

func (p *refPLCU) accumulate(dst []float64, qw []float64, qa [][]float64) []float64 {
	cfg := p.cfg
	for d := 0; d < cfg.Nd; d++ {
		var pos, neg float64
		for t := 0; t < cfg.Nm; t++ {
			w := qw[t]
			if w == 0 {
				continue
			}
			mag := math.Abs(w)
			// Intended signal: the ring for (t, d) drops its own
			// wavelength carrying |w| * a.
			sig := mag * qa[t][d]
			// Crosstalk: the same ring couples a fraction of the other
			// columns' wavelengths riding tap t's bus.
			if p.xtalk != nil {
				own := p.busChannels[t][d]
				for dp := 0; dp < cfg.Nd; dp++ {
					if dp == d {
						continue
					}
					sig += p.xtalk[own][p.busChannels[t][dp]] * mag * qa[t][dp]
				}
			}
			// Switching-ring faults attenuate whatever this ring
			// couples (signal and leakage alike).
			if p.faults != nil {
				sig *= p.ringGain(t, d)
			}
			if w > 0 {
				pos += sig
			} else {
				neg += sig
			}
		}
		i := (pos - neg) * p.unitCurrent
		if !cfg.DisableNoise {
			i += p.np.Sample(p.rng, p.unitCurrent, cfg.Nm)
		}
		dst[d] = i
	}
	return dst
}

func (p *refPLCU) ringGain(tap, column int) float64 {
	g := 1.0
	for _, f := range p.faults {
		if f.Tap != tap || f.Column != column {
			continue
		}
		switch f.Kind {
		case DeadRing:
			g = 0
		case DetunedRing:
			residual := f.Value
			if f.Drift > 0 {
				residual -= f.Drift * float64(p.cycles)
			}
			g *= clampUnit(residual)
		}
	}
	return g
}

// datapathTwins drives a PLCU and its reference with the same seed and
// faults.
type datapathTwins struct {
	p   *PLCU
	ref *refPLCU
}

func (tw datapathTwins) inject(f Fault) {
	tw.p.InjectFault(f)
	tw.ref.faults = append(tw.ref.faults, f)
}

func (tw datapathTwins) clear() {
	tw.p.ClearFaults()
	tw.ref.faults = nil
}

// randomCode draws a weight code covering the cases the datapath
// branches on: zero, negative zero, NaN, negative and positive
// magnitudes.
func randomCode(rng *rand.Rand) float64 {
	switch r := rng.Float64(); {
	case r < 0.15:
		return 0
	case r < 0.25:
		return math.Copysign(0, -1)
	case r < 0.27:
		return math.NaN()
	default:
		return 2*rng.Float64() - 1
	}
}

// randomRow fills one tap's activation row with a pattern the
// datapath's tap skip branches on: all zero (either sign), a single
// non-zero column, dense, or dense with a NaN.
func randomRow(rng *rand.Rand, row []float64) {
	switch r := rng.Float64(); {
	case r < 0.3:
		z := 0.0
		if rng.Intn(4) == 0 {
			z = math.Copysign(0, -1)
		}
		for d := range row {
			row[d] = z
		}
	case r < 0.5:
		for d := range row {
			row[d] = 0
		}
		row[rng.Intn(len(row))] = rng.Float64()
	default:
		for d := range row {
			if rng.Intn(8) == 0 {
				row[d] = 0
			} else {
				row[d] = rng.Float64()
			}
		}
		if r > 0.97 {
			row[rng.Intn(len(row))] = math.NaN()
		}
	}
}

func randomRing(rng *rand.Rand, cfg Config) (int, int) {
	return rng.Intn(cfg.Nm), rng.Intn(cfg.Nd)
}

// faultScenarios lists the fault sets the oracle test injects. Each
// returns the faults for one geometry; drifting rings decay to zero
// within the run so the clamp is exercised too.
var faultScenarios = []struct {
	name string
	make func(rng *rand.Rand, cfg Config) []Fault
}{
	{"healthy", func(*rand.Rand, Config) []Fault { return nil }},
	{"stuck-mzm", func(rng *rand.Rand, cfg Config) []Fault {
		return []Fault{{Kind: StuckMZM, Tap: rng.Intn(cfg.Nm), Value: rng.Float64()}}
	}},
	{"dead-ring", func(rng *rand.Rand, cfg Config) []Fault {
		t, d := randomRing(rng, cfg)
		return []Fault{{Kind: DeadRing, Tap: t, Column: d}}
	}},
	{"detuned-ring", func(rng *rand.Rand, cfg Config) []Fault {
		t, d := randomRing(rng, cfg)
		return []Fault{{Kind: DetunedRing, Tap: t, Column: d, Value: rng.Float64()}}
	}},
	{"drifting-detuned-ring", func(rng *rand.Rand, cfg Config) []Fault {
		t, d := randomRing(rng, cfg)
		return []Fault{{Kind: DetunedRing, Tap: t, Column: d, Value: 1, Drift: 1.0 / 700}}
	}},
	{"dead-and-detuned-one-ring", func(rng *rand.Rand, cfg Config) []Fault {
		t, d := randomRing(rng, cfg)
		return []Fault{
			{Kind: DetunedRing, Tap: t, Column: d, Value: 0.6},
			{Kind: DeadRing, Tap: t, Column: d},
		}
	}},
	{"stacked-drift-and-mixed", func(rng *rand.Rand, cfg Config) []Fault {
		t, d := randomRing(rng, cfg)
		t2, d2 := randomRing(rng, cfg)
		return []Fault{
			{Kind: DetunedRing, Tap: t, Column: d, Value: 0.7},
			{Kind: DetunedRing, Tap: t, Column: d, Value: 0.9, Drift: 1.0 / 500},
			{Kind: StuckMZM, Tap: t2, Value: 0.4},
			{Kind: DeadRing, Tap: t2, Column: d2},
		}
	}},
}

// TestAccumulateMatchesReference drives the PLCU datapath and the
// verbatim reference side by side over random geometries, impairment
// switches, weight codes and fault sets, comparing every output bit.
func TestAccumulateMatchesReference(t *testing.T) {
	t.Parallel()
	const cycles = 1200
	rng := rand.New(rand.NewSource(12))
	kernels := []struct{ h, w int }{{3, 3}, {2, 2}, {1, 3}}
	for _, nd := range []int{1, 2, 5, 7} {
		for _, k := range kernels {
			for _, xtalk := range []bool{true, false} {
				for _, noisy := range []bool{true, false} {
					for _, sc := range faultScenarios {
						cfg := DefaultConfig()
						cfg.Nd, cfg.KernelH, cfg.KernelW, cfg.Nm = nd, k.h, k.w, k.h*k.w
						cfg.K2 = 0.01 + 0.08*rng.Float64()
						cfg.DisableCrosstalk = !xtalk
						cfg.DisableNoise = !noisy
						cfg.Seed = rng.Int63()
						tw := datapathTwins{p: NewPLCU(cfg), ref: newRefPLCU(cfg)}
						for _, f := range sc.make(rng, cfg) {
							tw.inject(f)
						}
						if bad := runTwins(tw, rng, cycles); bad != "" {
							t.Fatalf("Nd=%d kernel %dx%d xtalk=%v noise=%v %s: %s",
								nd, k.h, k.w, xtalk, noisy, sc.name, bad)
						}
					}
				}
			}
		}
	}
}

// runTwins runs both sides for n cycles and returns a description of
// the first differing output, or "". Even cycles feed codes straight to
// the datapath with a live width cycling through 1..Nd, and compare
// only the live columns; there, most all-zero rows (either sign) reach
// the PLCU as its zero row, as the chip's row plan passes them, so the
// identity skip runs, while the reference reads the row itself. Odd
// cycles enter through CurrentsInto at full width, so StuckMZM faults
// reach the reference through the same effective weights, and every
// narrow cycle is followed by a full one that proves the dead columns
// kept the noise stream aligned. Faults
// change mid-run to exercise the gain-table rebuild.
func runTwins(tw datapathTwins, rng *rand.Rand, n int) string {
	cfg := tw.p.cfg
	qw := make([]float64, cfg.Nm)
	qa := make([][]float64, cfg.Nm)
	planned := make([][]float64, cfg.Nm)
	for t := range qa {
		qa[t] = make([]float64, cfg.Nd)
	}
	got := make([]float64, cfg.Nd)
	want := make([]float64, cfg.Nd)
	for c := 0; c < n; c++ {
		switch c {
		case n / 2:
			t, d := randomRing(rng, cfg)
			tw.inject(Fault{Kind: DetunedRing, Tap: t, Column: d, Value: rng.Float64()})
		case 3 * n / 4:
			tw.clear()
			t, d := randomRing(rng, cfg)
			tw.inject(Fault{Kind: DeadRing, Tap: t, Column: d})
		}
		for t := range qw {
			qw[t] = randomCode(rng)
			randomRow(rng, qa[t])
			planned[t] = qa[t]
			if allZero(qa[t]) && rng.Intn(4) != 0 {
				planned[t] = tw.p.zero
			}
		}
		tw.ref.cycles++
		live := cfg.Nd
		if c%2 == 0 {
			live = 1 + c/2%cfg.Nd
			tw.p.currentsPrequantized(got, qw, planned, live)
			tw.ref.accumulate(want, qw, qa)
		} else {
			tw.p.CurrentsInto(got, qw, qa)
			rqw := make([]float64, cfg.Nm)
			for t, w := range qw {
				rqw[t] = tw.p.effectiveWeight(t, tw.p.quantizeWeight(w))
			}
			rqa := make([][]float64, cfg.Nm)
			for t := range qa {
				rqa[t] = make([]float64, cfg.Nd)
				for d, a := range qa[t] {
					rqa[t][d] = tw.p.aq.Quantize(a)
				}
			}
			tw.ref.accumulate(want, rqw, rqa)
		}
		for d := range got[:live] {
			if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
				return fmt.Sprintf("cycle %d live %d column %d: got %#x, want %#x",
					c, live, d, math.Float64bits(got[d]), math.Float64bits(want[d]))
			}
		}
	}
	return ""
}

// TestCrosstalkTableMatchesMatrix checks the flat table against the
// 21-channel grid's crosstalk matrix read at each tap's bus positions.
func TestCrosstalkTableMatchesMatrix(t *testing.T) {
	t.Parallel()
	for _, geo := range []struct{ nd, kh, kw int }{{5, 3, 3}, {1, 3, 3}, {7, 2, 2}, {2, 1, 3}} {
		cfg := DefaultConfig()
		cfg.Nd, cfg.KernelH, cfg.KernelW, cfg.Nm = geo.nd, geo.kh, geo.kw, geo.kh*geo.kw
		coef := crosstalkTable(cfg)
		xt := circuit.NewCrosstalkAnalysis(cfg.K2, cfg.WavelengthsPerPLCU()).CrosstalkMatrix()
		if len(coef) != cfg.Nm*cfg.Nd*cfg.Nd {
			t.Fatalf("geometry %+v: table has %d entries, want %d", geo, len(coef), cfg.Nm*cfg.Nd*cfg.Nd)
		}
		for tap := 0; tap < cfg.Nm; tap++ {
			for d := 0; d < cfg.Nd; d++ {
				for dp := 0; dp < cfg.Nd; dp++ {
					want := 0.0
					if dp != d {
						want = xt[cfg.gridChannel(tap, d)][cfg.gridChannel(tap, dp)]
					}
					if got := coef[(tap*cfg.Nd+d)*cfg.Nd+dp]; math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("geometry %+v: coef[t=%d d=%d dp=%d] = %g, want %g", geo, tap, d, dp, got, want)
					}
				}
			}
		}
	}
}

// TestCrosstalkTableSharedAcrossChip checks that every PLCU of a chip,
// and of a second chip of the same geometry, reads one backing array,
// that the sigma cache matches the noise model, and that an ablated
// chip carries no table at all.
func TestCrosstalkTableSharedAcrossChip(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	a := NewChip(cfg)
	cfg.Seed = 99
	b := NewChip(cfg)
	first := &a.Groups()[0].Units()[0].coef[0]
	np := noise.DefaultParams()
	np.Bandwidth = cfg.ModulationRate()
	for _, c := range []*Chip{a, b} {
		for gi, g := range c.Groups() {
			for ui, u := range g.Units() {
				if &u.coef[0] != first {
					t.Errorf("group %d unit %d holds its own crosstalk table", gi, ui)
				}
				if want := np.TotalSigma(u.UnitCurrent(), cfg.Nm); math.Float64bits(u.sigma) != math.Float64bits(want) {
					t.Errorf("group %d unit %d sigma %g, want %g", gi, ui, u.sigma, want)
				}
			}
		}
	}
	for _, u := range NewChip(idealConfig()).Groups()[0].Units() {
		if u.coef != nil {
			t.Error("crosstalk-disabled unit carries a table")
		}
	}
}

func allZero(row []float64) bool {
	for _, a := range row {
		if a != 0 {
			return false
		}
	}
	return true
}

// TestAccumulateZeroRowIdentity pins the two edges of the identity
// skip: an all-zero row that is not the unit's zero row is not skipped
// and still gives the reference's bits, and a NaN weight code on the
// zero row is not skipped either, so it still poisons the sums.
func TestAccumulateZeroRowIdentity(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	qw := make([]float64, cfg.Nm)
	for i := range qw {
		qw[i] = float64(i%4)/4 - 0.3
	}
	rows := func(zeroRow func() []float64) [][]float64 {
		qa := make([][]float64, cfg.Nm)
		for tap := range qa {
			if tap%3 == 1 {
				qa[tap] = zeroRow()
				continue
			}
			qa[tap] = make([]float64, cfg.Nd)
			for d := range qa[tap] {
				qa[tap][d] = float64(tap+d+1) / 16
			}
		}
		return qa
	}
	negZero := func() []float64 {
		r := make([]float64, cfg.Nd)
		for d := range r {
			r[d] = math.Copysign(0, -1)
		}
		return r
	}

	tw := datapathTwins{p: NewPLCU(cfg), ref: newRefPLCU(cfg)}
	got, want := make([]float64, cfg.Nd), make([]float64, cfg.Nd)
	for i, unshared := range []func() []float64{func() []float64 { return make([]float64, cfg.Nd) }, negZero} {
		qa := rows(unshared)
		tw.ref.cycles++
		tw.p.currentsPrequantized(got, qw, qa, cfg.Nd)
		tw.ref.accumulate(want, qw, qa)
		if !sameBits(got, want) {
			t.Errorf("unshared all-zero rows %d: got %v, want %v", i, got, want)
		}
	}

	p := NewPLCU(cfg)
	nan := append([]float64(nil), qw...)
	nan[1] = math.NaN()
	p.currentsPrequantized(got, nan, rows(func() []float64 { return p.zero }), cfg.Nd)
	for d, v := range got {
		if !math.IsNaN(v) {
			t.Errorf("column %d: a NaN weight code on the zero row gave %g, want NaN", d, v)
		}
	}
}
