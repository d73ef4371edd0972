package noise

import (
	"math"
	"testing"
)

func TestErrorProbabilityLimits(t *testing.T) {
	t.Parallel()
	// Wide separation: vanishing error.
	if p := ErrorProbability(1, 0.01); p > 1e-15 {
		t.Errorf("100-sigma separation should be error free, got %g", p)
	}
	// Zero separation: certain error.
	if ErrorProbability(0, 1) != 1 {
		t.Error("zero separation should always err")
	}
	// Zero noise: never errs.
	if ErrorProbability(1, 0) != 0 {
		t.Error("noiseless reads never err")
	}
}

func TestErrorProbabilityKnownValues(t *testing.T) {
	t.Parallel()
	// Separation of 2 sigma: erfc(1/sqrt(2)) = 0.3173 (the classic
	// 1-sigma two-sided tail).
	got := ErrorProbability(2, 1)
	want := math.Erfc(1 / math.Sqrt2)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("2-sigma separation error = %g, want %g", got, want)
	}
	// 6-sigma separation: ~2.7e-3... erfc(3/sqrt2) = 0.0027.
	got = ErrorProbability(6, 1)
	if math.Abs(got-0.0026997960632601866) > 1e-12 {
		t.Errorf("6-sigma separation error = %g", got)
	}
}

func TestErrorProbabilityMonotone(t *testing.T) {
	t.Parallel()
	prev := 1.1
	for sep := 0.5; sep <= 8; sep += 0.5 {
		p := ErrorProbability(sep, 1)
		if p >= prev {
			t.Fatalf("error probability must fall with separation at %g", sep)
		}
		prev = p
	}
}

func TestLevelErrorProbability(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	iPer := 0.5e-3
	// More bits, thinner levels, more errors.
	prev := -1.0
	for b := 4; b <= 12; b++ {
		e := p.LevelErrorProbability(iPer, 20, b)
		if e < prev {
			t.Fatalf("error must grow with bit depth at %d bits", b)
		}
		prev = e
	}
	// Degenerate inputs are certain errors.
	if p.LevelErrorProbability(0, 20, 8) != 1 || p.LevelErrorProbability(1e-3, 0, 8) != 1 {
		t.Error("degenerate operating points cannot support any bits")
	}
}

func TestMaxErrorFreeBitsConsistent(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	iPer := 1.1 * 2e-3 * math.Pow(10, -0.5)
	// At a 1e-9 error budget the supported width is close to (a bit
	// below) the sigma-separation estimate with its default k=1.
	bits := p.MaxErrorFreeBits(iPer, 20, 1e-9)
	est := p.SupportedIntBits(iPer, 20)
	if bits > est {
		t.Errorf("1e-9-budget bits (%d) should not exceed the k=1 estimate (%d)", bits, est)
	}
	if bits < est-4 {
		t.Errorf("error-budget bits (%d) implausibly far below estimate (%d)", bits, est)
	}
	// Looser budgets admit more bits.
	if loose := p.MaxErrorFreeBits(iPer, 20, 1e-2); loose < bits {
		t.Error("a looser error budget should admit at least as many bits")
	}
	if p.MaxErrorFreeBits(iPer, 20, 0) != 0 {
		t.Error("zero budget supports zero bits")
	}
}

func TestMACErrorsPerInference(t *testing.T) {
	t.Parallel()
	if got := MACErrorsPerInference(1e-6, 1e6); math.Abs(got-1) > 1e-9 {
		t.Errorf("expected errors = %g, want 1", got)
	}
	if MACErrorsPerInference(-1, 100) != 0 {
		t.Error("negative probability should clamp")
	}
}

// The paper (Section II-C.1) notes that output value distributions
// "may overlap a decision threshold with a small probability", making
// computation approximate beyond the supported precision. The model
// below is the probability that Gaussian noise pushes an output across
// the midpoint between adjacent levels. No binary uses it; it lives
// with the tests that check it.

// ErrorProbability returns the per-sample probability of reading the
// wrong level when adjacent levels are separated by sep and the noise
// is Gaussian with standard deviation sigma. Interior levels can err
// in both directions: P = erfc(sep/(2*sqrt(2)*sigma)).
func ErrorProbability(sep, sigma float64) float64 {
	if sigma <= 0 {
		return 0
	}
	if sep <= 0 {
		return 1
	}
	return math.Erfc(sep / (2 * math.Sqrt2 * sigma))
}

// LevelErrorProbability returns the misread probability for a b-bit
// output over an accumulation of n wavelengths with per-channel
// full-scale photocurrent iPer: the full scale n*iPer is divided into
// 2^bits levels and compared against the operating-point noise.
func (p Params) LevelErrorProbability(iPer float64, n, bits int) float64 {
	if iPer <= 0 || n <= 0 || bits <= 0 {
		return 1
	}
	fullScale := iPer * float64(n)
	sep := fullScale / float64(uint64(1)<<uint(bits))
	return ErrorProbability(sep, p.TotalSigma(iPer, n))
}

// MaxErrorFreeBits returns the largest bit width whose per-sample
// error probability stays below pMax at the operating point - the
// "fully supports b bits without error" criterion with an explicit
// error budget instead of a sigma-separation rule of thumb.
func (p Params) MaxErrorFreeBits(iPer float64, n int, pMax float64) int {
	if pMax <= 0 {
		return 0
	}
	bits := 0
	for b := 1; b <= 16; b++ {
		if p.LevelErrorProbability(iPer, n, b) > pMax {
			break
		}
		bits = b
	}
	return bits
}

// MACErrorsPerInference estimates the expected number of erroneous
// MAC-level reads in an inference with total dot-product outputs
// given the per-sample error probability.
func MACErrorsPerInference(perSample float64, outputs int64) float64 {
	if perSample < 0 {
		perSample = 0
	}
	return perSample * float64(outputs)
}
