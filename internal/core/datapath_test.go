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

// poisonZeroCodeRow fills the row of one ±0-coded tap, if qw has one,
// with NaN activations, half of the time. The datapath skips a zero
// code, so those activations must never reach an output.
func poisonZeroCodeRow(rng *rand.Rand, qw []float64, rows [][]float64) {
	if rng.Intn(2) == 0 {
		return
	}
	for t, w := range qw {
		if w == 0 {
			for d := range rows[t] {
				rows[t][d] = math.NaN()
			}
			return
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

// blockWidths are the column counts the datapath tests run: both sides
// of healthyCurrents' column block, and a remainder after a full one.
var blockWidths = []int{1, 2, 3, 4, 5, 7, 8, 9}

// TestAccumulateMatchesReference drives the PLCU datapath and the
// verbatim reference side by side over random geometries, impairment
// switches, weight codes and fault sets, comparing every output bit.
func TestAccumulateMatchesReference(t *testing.T) {
	t.Parallel()
	const cycles = 1200
	rng := rand.New(rand.NewSource(12))
	kernels := []struct{ h, w int }{{3, 3}, {2, 2}, {1, 3}}
	for _, nd := range blockWidths {
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
// the first differing output, or "". Even cycles feed codes and raw
// rows straight to accumulate with the unit's crosstalk table and a
// live width cycling through 1..Nd, and compare only the live columns.
// Odd cycles enter through CurrentsInto at full width, so StuckMZM
// faults reach the reference through the same effective weights, and
// every narrow cycle is followed by a full one that proves the dead
// columns kept the noise stream aligned. Faults change mid-run to
// exercise the gain-table rebuild.
func runTwins(tw datapathTwins, rng *rand.Rand, n int) string {
	cfg := tw.p.cfg
	qw := make([]float64, cfg.Nm)
	qa := make([][]float64, cfg.Nm)
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
		}
		poisonZeroCodeRow(rng, qw, qa)
		tw.ref.cycles++
		live := cfg.Nd
		if c%2 == 0 {
			live = 1 + c/2%cfg.Nd
			tw.p.cycles++
			tw.p.accumulate(got, qw, flatRows(qa), live, tw.p.coef)
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

// flatRows lays rows out back to back, the flat set layout accumulate
// reads.
func flatRows(rows [][]float64) []float64 {
	var flat []float64
	for _, row := range rows {
		flat = append(flat, row...)
	}
	return flat
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

// TestAccumulateZeroRowIdentity pins what an all-zero row does on the
// flat path the chip drives: a tap whose row is all zero (either sign)
// changes no output bit against the same cycle with that tap's weight
// code zeroed, which accumulate skips, and a NaN weight code on an
// all-zero row still poisons the sums.
func TestAccumulateZeroRowIdentity(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	nm, nd := cfg.Nm, cfg.Nd
	qw := make([]float64, nm)
	for i := range qw {
		qw[i] = float64(i%4)/4 - 0.3
	}
	set := func(zero float64) []float64 {
		qa := make([]float64, nm*nd)
		for i := range qa {
			tap, d := i/nd, i%nd
			if tap%3 == 1 {
				qa[i] = zero
			} else {
				qa[i] = float64(tap+d+1) / 16
			}
		}
		return qa
	}
	skipped := append([]float64(nil), qw...)
	for tap := 1; tap < nm; tap += 3 {
		skipped[tap] = 0
	}

	for _, zero := range []float64{0, math.Copysign(0, -1)} {
		for _, faulted := range []bool{false, true} {
			a, b := NewPLCU(cfg), NewPLCU(cfg)
			if faulted {
				for _, p := range []*PLCU{a, b} {
					p.InjectFault(Fault{Kind: DetunedRing, Tap: 1, Column: 2, Value: 0.5})
					p.InjectFault(Fault{Kind: DetunedRing, Tap: 4, Column: 0, Value: 1, Drift: 1.0 / 64})
				}
			}
			got, want := make([]float64, nd), make([]float64, nd)
			for cycle := 0; cycle < 8; cycle++ {
				live := 1 + cycle%nd
				a.currentsPrequantized(got, qw, set(zero), live)
				b.currentsPrequantized(want, skipped, set(zero), live)
				if !sameBits(got[:live], want[:live]) {
					t.Fatalf("zero %v faulted=%v cycle %d: all-zero rows moved the output: got %v, want %v",
						zero, faulted, cycle, got[:live], want[:live])
				}
			}
		}
	}

	p := NewPLCU(cfg)
	nan := append([]float64(nil), qw...)
	nan[1] = math.NaN()
	got := make([]float64, nd)
	p.currentsPrequantized(got, nan, set(0), nd)
	for d, v := range got {
		if !math.IsNaN(v) {
			t.Errorf("column %d: a NaN weight code on an all-zero row gave %g, want NaN", d, v)
		}
	}
}

// TestAccumulateFastPathMatchesGeneralLoop pins accumulate's healthy
// leaf kernel (no crosstalk table, no faulted ring) to its general
// loop: the same cycles on a twin whose ring-gain table is all ones,
// which takes the general loop and multiplies every signal by an exact
// 1, must give the same bits, at every Nd of blockWidths and every
// live width, noise on. Every cycle draws fresh mixed-sign codes, ±0
// and NaN codes among them, and NaN activations on zero-code taps; an
// output column is NaN exactly when a NaN code or a NaN activation on
// a non-zero-code tap reaches it.
func TestAccumulateFastPathMatchesGeneralLoop(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(19))
	for _, nd := range blockWidths {
		cfg := DefaultConfig()
		cfg.Nd = nd
		nm := cfg.Nm
		fast, general := NewPLCU(cfg), NewPLCU(cfg)
		general.gains = make([]float64, nm*nd)
		for i := range general.gains {
			general.gains[i] = 1
		}
		qw, rows := make([]float64, nm), make([][]float64, nm)
		for tap := range rows {
			rows[tap] = make([]float64, nd)
		}
		got, want := make([]float64, nd), make([]float64, nd)
		for cycle := 0; cycle < 100*nd; cycle++ {
			for tap := range qw {
				qw[tap] = randomCode(rng)
				randomRow(rng, rows[tap])
			}
			poisonZeroCodeRow(rng, qw, rows)
			qa := flatRows(rows)
			live := 1 + cycle%nd
			fast.accumulate(got, qw, qa, live, nil)
			general.accumulate(want, qw, qa, live, nil)
			if !sameBits(got[:live], want[:live]) {
				t.Fatalf("Nd=%d cycle %d live %d: leaf kernel %v, general loop %v", nd, cycle, live, got[:live], want[:live])
			}
			for d := 0; d < live; d++ {
				nan := false
				for tap, w := range qw {
					nan = nan || math.IsNaN(w) || (w != 0 && math.IsNaN(rows[tap][d]))
				}
				if math.IsNaN(got[d]) != nan {
					t.Fatalf("Nd=%d cycle %d live %d column %d: got %g, want NaN %v", nd, cycle, live, d, got[d], nan)
				}
			}
		}
	}
}

// TestFoldedStepMatchesReference is the oracle of the crosstalk fold:
// PLCG.stepPrequantized on flat sets folded by foldRow against one
// verbatim refPLCU per unit on the raw rows, summed across units and
// digitized by the group's own ADC, over TestAccumulateMatchesReference's
// matrix (every fault scenario, drifting rings included, injected into
// every unit). The fold only moves rounding, so the pre-ADC analog sums
// must agree within 8 ulp of the column's magnitude - Σ|w|·x·I_unit
// over every driven unit and tap, plus each unit's noise sample when
// noise is on, since the sums round at the size of what they hold -
// and the ADC codes must be identical.
func TestFoldedStepMatchesReference(t *testing.T) {
	t.Parallel()
	const cycles = 400
	rng := rand.New(rand.NewSource(18))
	kernels := []struct{ h, w int }{{3, 3}, {2, 2}, {1, 3}}
	worst := 0.0
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
						tw := newFoldTwins(cfg)
						for u := range tw.g.units {
							for _, f := range sc.make(rng, cfg) {
								tw.inject(u, f)
							}
						}
						ulps, bad := tw.run(rng, cycles)
						if bad != "" {
							t.Fatalf("Nd=%d kernel %dx%d xtalk=%v noise=%v %s: %s",
								nd, k.h, k.w, xtalk, noisy, sc.name, bad)
						}
						worst = math.Max(worst, ulps)
					}
				}
			}
		}
	}
	t.Logf("worst pre-ADC difference: %.2f ulp of the column magnitude", worst)
}

// foldTwins drives a PLCG on folded sets beside, for each of its
// units, a verbatim reference on the raw rows and a noiseless copy of
// that reference, whose difference is the unit's noise sample.
type foldTwins struct {
	g           *PLCG
	ref, quiet  []*refPLCU
	plan        rowPlan
	unitCurrent float64
}

func newFoldTwins(cfg Config) foldTwins {
	tw := foldTwins{g: NewPLCG(cfg)}
	for _, u := range tw.g.units {
		tw.ref = append(tw.ref, newRefPLCU(u.cfg))
		qcfg := u.cfg
		qcfg.DisableNoise = true
		tw.quiet = append(tw.quiet, newRefPLCU(qcfg))
	}
	tw.plan = newRowPlan(cfg)
	tw.unitCurrent = tw.g.units[0].UnitCurrent()
	return tw
}

func (tw foldTwins) inject(u int, f Fault) {
	tw.g.units[u].InjectFault(f)
	tw.ref[u].faults = append(tw.ref[u].faults, f)
	tw.quiet[u].faults = append(tw.quiet[u].faults, f)
}

// run drives n cycles over random slot counts (tail channel groups),
// live widths, weight codes (fault-effective, so StuckMZM applies) and
// raw rows, and returns the worst pre-ADC difference in ulps of the
// column magnitude and a description of the first violation, or "".
func (tw foldTwins) run(rng *rand.Rand, n int) (float64, string) {
	cfg := tw.g.cfg
	nm, nd := cfg.Nm, cfg.Nd
	qw := make([][]float64, cfg.Nu)
	raw := make([][][]float64, cfg.Nu)
	sets := make([][]float64, cfg.Nu)
	for i := range raw {
		qw[i] = make([]float64, nm)
		sets[i] = make([]float64, nm*nd)
		raw[i] = make([][]float64, nm)
		for t := range raw[i] {
			raw[i][t] = make([]float64, nd)
		}
	}
	got, want := make([]float64, nd), make([]float64, nd)
	cur, quiet := make([]float64, nd), make([]float64, nd)
	sum, mag := make([]float64, nd), make([]float64, nd)
	worst := 0.0
	for c := 0; c < n; c++ {
		nu, live := 1+rng.Intn(cfg.Nu), 1+rng.Intn(nd)
		for i := 0; i < nu; i++ {
			unit := tw.g.units[tw.g.avail[i]]
			for t := 0; t < nm; t++ {
				qw[i][t] = unit.effectiveWeight(t, randomCode(rng))
				randomRow(rng, raw[i][t])
				foldRow(sets[i][t*nd:(t+1)*nd], raw[i][t], 1, tw.plan.tapCoef(t))
			}
		}
		tw.g.stepPrequantized(got, qw[:nu], sets[:nu], live)
		analog := tw.g.sumBuf[:live]

		clear(sum)
		clear(mag)
		for i := 0; i < nu; i++ {
			u := tw.g.avail[i]
			tw.ref[u].cycles++
			tw.quiet[u].cycles++
			tw.ref[u].accumulate(cur, qw[i], raw[i])
			tw.quiet[u].accumulate(quiet, qw[i], raw[i])
			for d := 0; d < live; d++ {
				sum[d] += cur[d]
				mag[d] += math.Abs(cur[d] - quiet[d])
				for t, w := range qw[i] {
					if w != 0 { // accumulate skips zero codes
						mag[d] += math.Abs(w) * math.Abs(sets[i][t*nd+d]) * tw.unitCurrent
					}
				}
			}
		}
		tw.g.aggregate(want[:live], sum[:live], nu)
		for d := 0; d < live; d++ {
			if math.IsNaN(sum[d]) || math.IsNaN(analog[d]) {
				if !math.IsNaN(sum[d]) || !math.IsNaN(analog[d]) || !math.IsNaN(got[d]) || !math.IsNaN(want[d]) {
					return worst, fmt.Sprintf("cycle %d column %d: NaN mismatch: analog %g, reference %g", c, d, analog[d], sum[d])
				}
				continue
			}
			ulp := math.Nextafter(mag[d], math.Inf(1)) - mag[d]
			diff := math.Abs(analog[d]-sum[d]) / ulp
			worst = math.Max(worst, diff)
			if !(diff <= 8) {
				return worst, fmt.Sprintf("cycle %d column %d: analog sum %g, reference %g: %.1f ulp of %g",
					c, d, analog[d], sum[d], diff, mag[d])
			}
			if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
				return worst, fmt.Sprintf("cycle %d column %d: ADC code %g, reference %g", c, d, got[d], want[d])
			}
		}
	}
	return worst, ""
}

// BenchmarkStepPrequantized times the step healthy chip layers run:
// PLCG.stepPrequantized on compiled slots (DAC codes of random sign,
// one in eight zero) against quantized activation sets, noise on, at
// every live width. It cycles through a prime number of distinct slot
// sets, so a tap's sign changes from step to step and the branch
// predictor cannot learn the pattern.
func BenchmarkStepPrequantized(b *testing.B) {
	cfg := DefaultConfig()
	g := NewPLCG(cfg)
	rng := rand.New(rand.NewSource(30))
	const sets = 257
	qw, qa := make([][][]float64, sets), make([][][]float64, sets)
	for s := range qw {
		qw[s], qa[s] = make([][]float64, cfg.Nu), make([][]float64, cfg.Nu)
		for i, u := range g.units {
			qw[s][i] = make([]float64, cfg.Nm)
			for t := range qw[s][i] {
				w := 2*rng.Float64() - 1
				if rng.Intn(8) == 0 {
					w = 0
				}
				qw[s][i][t] = u.effectiveWeight(t, u.quantizeWeight(w))
			}
			qa[s][i] = make([]float64, cfg.Nm*cfg.Nd)
			for j := range qa[s][i] {
				if rng.Intn(4) != 0 {
					qa[s][i][j] = u.aq.Quantize(rng.Float64())
				}
			}
		}
	}
	dst := make([]float64, cfg.Nd)
	for live := 1; live <= cfg.Nd; live++ {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := i % sets
				g.stepPrequantized(dst, qw[s], qa[s], live)
			}
		})
	}
}
