package experiments

import (
	"fmt"
	"strings"

	"albireo/internal/core"
	"albireo/internal/inference"
	"albireo/internal/tensor"
)

// End-to-end fidelity: small seeded CNNs run through the functional
// analog chip and compared with the exact reference.

// FidelityRow is one network under one impairment set: top-1
// agreement and mean logit correlation with the exact reference.
type FidelityRow struct {
	Network, Impairments string
	Top1, LogitCorr      float64
}

// fidelityInputs returns the studies' 16 seeded 3x16x16 inputs.
func fidelityInputs() []*tensor.Volume {
	inputs := make([]*tensor.Volume, 16)
	for i := range inputs {
		inputs[i] = tensor.RandomVolume(3, 16, 16, 7000+int64(i))
	}
	return inputs
}

// Fidelity runs the tiny CNN, MobileNet- and ResNet-shaped networks
// with converters only, crosstalk only, noise only and all
// impairments. Each impairment set is one chip, shared by the networks
// in turn.
func Fidelity() []FidelityRow {
	inputs := fidelityInputs()
	sets := []struct {
		name             string
		noise, crosstalk bool
	}{
		{"ideal (converters only)", false, false},
		{"crosstalk only", false, true},
		{"noise only", true, false},
		{"full impairments", true, true},
	}
	chips := make([]inference.Analog, len(sets))
	for i, s := range sets {
		cfg := core.DefaultConfig()
		cfg.DisableNoise, cfg.DisableCrosstalk = !s.noise, !s.crosstalk
		chips[i] = inference.NewAnalog(cfg)
	}
	var rows []FidelityRow
	for _, net := range []*inference.Network{
		inference.TinyCNN(3, 16, 7), inference.TinyMobile(3, 16, 107), inference.TinyResNet(3, 16, 207),
	} {
		for i, s := range sets {
			top1, corr := inference.Agreement(net, inference.Exact{}, chips[i], inputs)
			rows = append(rows, FidelityRow{net.Name, s.name, top1, corr})
		}
	}
	return rows
}

// FormatFidelity renders the fidelity table.
func FormatFidelity(rows []FidelityRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "end-to-end fidelity vs exact reference")
	fmt.Fprintf(&b, "%-12s  %-24s  top-1  logit-corr\n", "network", "impairments")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s  %-24s  %5.2f  %10.4f\n", r.Network, r.Impairments, r.Top1, r.LogitCorr)
	}
	return b.String()
}

// FaultRow is the tiny CNN on a fully impaired chip with DeadRings
// dead switching rings in PLCG 0's first PLCU.
type FaultRow struct {
	DeadRings       int
	Top1, LogitCorr float64
}

// Faults kills 0, 1, 5, 15 and 45 switching rings, tap by tap and
// column by column, on a fresh chip each and measures the tiny CNN's
// agreement with the exact reference.
func Faults() []FaultRow {
	inputs := fidelityInputs()
	net := inference.TinyCNN(3, 16, 7)
	var rows []FaultRow
	for _, n := range []int{0, 1, 5, 15, 45} {
		be := inference.NewAnalog(core.DefaultConfig())
		unit := be.Chip.Groups()[0].Units()[0]
		for i := 0; i < n; i++ {
			unit.InjectFault(core.Fault{Kind: core.DeadRing, Tap: i / 5, Column: i % 5})
		}
		top1, corr := inference.Agreement(net, inference.Exact{}, be, inputs)
		rows = append(rows, FaultRow{n, top1, corr})
	}
	return rows
}

// FormatFaults renders the fault-injection table.
func FormatFaults(rows []FaultRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "fault injection (dead switching rings in PLCG 0, tiny-cnn):")
	fmt.Fprintln(&b, "dead-rings  top-1  logit-corr")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d  %5.2f  %10.4f\n", r.DeadRings, r.Top1, r.LogitCorr)
	}
	return b.String()
}
